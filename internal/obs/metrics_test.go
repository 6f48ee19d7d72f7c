package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCounterGauge: basic semantics, including the monotone guard on
// Counter.Add.
func TestCounterGauge(t *testing.T) {
	c := NewCounter("test_counter_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 5 || c.String() != "5" {
		t.Errorf("counter = %d (%q)", c.Value(), c.String())
	}

	g := NewGauge("test_gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d", g.Value())
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	NewCounter("test_counter_total")
}

// TestHistogram: observations land in the right buckets and the snapshot
// carries count and sum.
func TestHistogram(t *testing.T) {
	h := NewHistogram("test_duration_ms")
	h.Observe(500 * time.Microsecond) // 0.5ms -> bucket "1"
	h.Observe(3 * time.Millisecond)   // -> bucket "5"
	h.Observe(2 * time.Minute)        // -> +Inf
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	v := h.value().(map[string]any)
	buckets := v["buckets"].(map[string]int64)
	if buckets["1"] != 1 || buckets["5"] != 1 || buckets["+Inf"] != 1 {
		t.Errorf("buckets = %v", buckets)
	}
	if sum := v["sum_ms"].(float64); sum < 120003 || sum > 120004 {
		t.Errorf("sum_ms = %v", sum)
	}
}

// TestHistogramObserveValue: _ratio families record plain numbers against
// the shared bucket bounds, and the snapshot sum is the value sum.
func TestHistogramObserveValue(t *testing.T) {
	h := NewHistogram("test_regret_ratio")
	h.ObserveValue(1.0) // -> bucket "1"
	h.ObserveValue(2.2) // -> bucket "5"
	h.ObserveValue(-3)  // clamps to 0 -> bucket "1"
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	snap := h.Snapshot()
	if snap.Counts[0] != 2 || snap.Counts[2] != 1 {
		t.Errorf("counts = %v", snap.Counts)
	}
	if snap.SumMS < 3.199 || snap.SumMS > 3.201 {
		t.Errorf("value sum = %v", snap.SumMS)
	}
}

// TestSnapshotAndHandler: the registry snapshot includes the standard vars,
// /metrics serves Prometheus exposition text, and the "cfq" var of
// /debug/vars keeps the JSON form.
func TestSnapshotAndHandler(t *testing.T) {
	MQueries.Inc()
	snap := Snapshot()
	if _, ok := snap["queries_total"]; !ok {
		t.Fatalf("queries_total missing from snapshot: %v", snap)
	}
	if _, ok := snap["query_duration_ms"]; !ok {
		t.Error("histogram missing from snapshot")
	}

	rec := httptest.NewRecorder()
	NewMetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := rec.Body.String()
	if !strings.Contains(text, "# TYPE db_scans_total counter") {
		t.Errorf("db_scans_total TYPE line missing from /metrics:\n%s", text)
	}
	if !strings.Contains(text, `query_duration_ms_bucket{le="+Inf"}`) {
		t.Error("histogram +Inf bucket missing from /metrics")
	}

	// /debug/vars exposes the same registry, as JSON, under the "cfq" expvar.
	rec = httptest.NewRecorder()
	NewMetricsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/vars Content-Type = %q", ct)
	}
	var vars struct {
		CFQ map[string]any `json:"cfq"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars.CFQ["db_scans_total"]; !ok {
		t.Errorf("db_scans_total missing from the cfq var of /debug/vars: %v", vars.CFQ)
	}
}

// TestPublishStats: counter-shaped dimensions are folded in; db_scans is
// excluded (txdb publishes scans live).
func TestPublishStats(t *testing.T) {
	scansBefore := MDBScans.Value()
	candBefore := MCandidates.Value()
	PublishStats(Counters{
		"candidates_counted": 11,
		"db_scans":           99,
		"checkpoints":        2,
	})
	if got := MCandidates.Value() - candBefore; got != 11 {
		t.Errorf("candidates delta = %d", got)
	}
	if MDBScans.Value() != scansBefore {
		t.Error("PublishStats double-counted db_scans")
	}
}

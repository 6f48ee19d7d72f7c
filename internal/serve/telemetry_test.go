package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/obs/workload"
)

// postWithHeaders posts v with the given headers and returns the response.
func postWithHeaders(t *testing.T, url string, v any, hdr map[string]string) *http.Response {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestCorrelationPropagation: a client-supplied traceparent and X-Request-ID
// flow through to the response headers and envelope; the server's span sits
// under the client's trace, not a fresh one.
func TestCorrelationPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	parent := "00-" + traceID + "-00f067aa0ba902b7-01"

	resp := postWithHeaders(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2},
		map[string]string{"Traceparent": parent, "X-Request-ID": "client-req-9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-req-9" {
		t.Errorf("X-Request-ID = %q", got)
	}
	echoed := resp.Header.Get("Traceparent")
	tc, ok := telemetry.ParseTraceparent(echoed)
	if !ok || tc.TraceID != traceID {
		t.Errorf("Traceparent = %q, want trace %s", echoed, traceID)
	}
	var qr QueryResponse
	decodeInto(t, resp, &qr)
	if qr.RequestID != "client-req-9" || qr.TraceID != traceID {
		t.Errorf("envelope ids = %q / %q", qr.RequestID, qr.TraceID)
	}
}

// TestCorrelationOnErrorStatuses: 404, 422, 429, and 503 responses all carry
// the correlation headers and the trace id in the error envelope (the
// middleware sets them before the handler runs, so no error path can lose
// them).
func TestCorrelationOnErrorStatuses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, QueueWait: 10 * time.Millisecond})

	check := func(t *testing.T, resp *http.Response, status int, code string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("status = %d, want %d", resp.StatusCode, status)
		}
		if got := resp.Header.Get("X-Request-ID"); got != "err-req" {
			t.Errorf("X-Request-ID = %q", got)
		}
		if _, ok := telemetry.ParseTraceparent(resp.Header.Get("Traceparent")); !ok {
			t.Errorf("bad Traceparent header %q", resp.Header.Get("Traceparent"))
		}
		var er ErrorResponse
		decodeInto(t, resp, &er)
		if er.RequestID != "err-req" || er.TraceID == "" {
			t.Errorf("envelope ids = %q / %q", er.RequestID, er.TraceID)
		}
		if er.Error == nil || er.Error.Code != code {
			t.Errorf("error = %+v, want code %s", er.Error, code)
		}
	}
	hdr := map[string]string{"X-Request-ID": "err-req"}
	q := &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2, NoCache: true}

	t.Run("404 unknown dataset", func(t *testing.T) {
		resp := postWithHeaders(t, ts.URL+"/v1/query",
			&QueryRequest{Dataset: "nope", Query: readmeQueryText}, hdr)
		check(t, resp, http.StatusNotFound, CodeUnknownDataset)
	})
	t.Run("422 budget exhausted", func(t *testing.T) {
		resp := postWithHeaders(t, ts.URL+"/v1/query",
			&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2,
				NoCache: true, NoSession: true, Budget: &BudgetSpec{MaxCandidates: 1}}, hdr)
		check(t, resp, http.StatusUnprocessableEntity, CodeBudgetExhausted)
	})
	t.Run("429 overloaded", func(t *testing.T) {
		// Hold the only worker slot; with queue depth 0 the next request is
		// shed immediately.
		if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
			t.Fatal(err)
		}
		defer s.adm.release()
		resp := postWithHeaders(t, ts.URL+"/v1/query", q, hdr)
		check(t, resp, http.StatusTooManyRequests, CodeOverloaded)
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	})
	t.Run("503 draining", func(t *testing.T) {
		s.draining.Store(true)
		defer s.draining.Store(false)
		resp := postWithHeaders(t, ts.URL+"/v1/query", q, hdr)
		check(t, resp, http.StatusServiceUnavailable, CodeDraining)
	})
	t.Run("injection cleaned", func(t *testing.T) {
		resp := postWithHeaders(t, ts.URL+"/v1/query",
			&QueryRequest{Dataset: "nope", Query: readmeQueryText},
			map[string]string{"X-Request-ID": "ok (but; spaces)"})
		if got := resp.Header.Get("X-Request-ID"); got != "okbutspaces" {
			t.Errorf("cleaned id = %q", got)
		}
		resp.Body.Close()
	})
}

// TestSlowQueryCapture: with the slow log enabled at a zero-ish threshold,
// a query leaves a slow record whose pruning-site attribution sums to the
// run's CandidatesPruned and whose ExplainReport is of the plan that ran —
// the engine strategy for an inline fixed-strategy run, Apriori⁺ over the
// cached lattice for the default session path — and preserves the same
// total: the attribution contract, end to end through HTTP.
func TestSlowQueryCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond})

	for _, mode := range []struct {
		name               string
		noSession          bool
		strategy, executed string
	}{
		{"fixed strategy", true, "optimized", "optimized"},
		{"session", false, "session", "apriori+"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			resp := postWithHeaders(t, ts.URL+"/v1/query",
				&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2,
					NoCache: true, NoSession: mode.noSession}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query status %d", resp.StatusCode)
			}
			var qr QueryResponse
			decodeInto(t, resp, &qr)
			var res struct {
				Stats struct{ CandidatesPruned int64 }
			}
			if err := json.Unmarshal(qr.Result, &res); err != nil {
				t.Fatal(err)
			}

			// The record is written after the response; poll briefly.
			var rec *workload.Record
			deadline := time.Now().Add(2 * time.Second)
			for rec == nil && time.Now().Before(deadline) {
				sl := getSlowlog(t, ts.URL, 0)
				if !sl.Enabled {
					t.Fatal("slowlog reports disabled")
				}
				for _, r := range sl.Records {
					if r.TraceID == qr.TraceID {
						rec = r
					}
				}
				if rec == nil {
					time.Sleep(10 * time.Millisecond)
				}
			}
			if rec == nil {
				t.Fatal("no slow-query record for the request's trace id")
			}

			if rec.Endpoint != "query" || rec.Dataset != "market" || rec.Status != http.StatusOK || !rec.Slow {
				t.Errorf("record = endpoint %q dataset %q status %d slow %v", rec.Endpoint, rec.Dataset, rec.Status, rec.Slow)
			}
			if rec.Strategy != mode.strategy {
				t.Errorf("record strategy = %q, want %q", rec.Strategy, mode.strategy)
			}
			if rec.Query == "" || !strings.Contains(rec.Query, "freq(S)") {
				t.Errorf("canonical query missing: %q", rec.Query)
			}
			if rec.CandidatesPruned != res.Stats.CandidatesPruned {
				t.Errorf("record pruned %d != response stats %d", rec.CandidatesPruned, res.Stats.CandidatesPruned)
			}
			if rec.CandidatesPruned == 0 {
				t.Fatal("test query pruned nothing; the sum contract below is vacuous")
			}
			if sum := siteSum(rec); sum != rec.CandidatesPruned {
				t.Errorf("prune sites sum %d != candidates_pruned %d (%v)", sum, rec.CandidatesPruned, rec.PruneSites)
			}
			if rec.Explain == nil {
				t.Fatal("no auto-captured ExplainReport")
			}
			if rec.Explain.Strategy != mode.executed {
				t.Errorf("ExplainReport.Strategy = %q, want %q (the plan that ran)", rec.Explain.Strategy, mode.executed)
			}
			if got := rec.Explain.SumPruned(); got != rec.CandidatesPruned {
				t.Errorf("ExplainReport.SumPruned() = %d != candidates_pruned %d", got, rec.CandidatesPruned)
			}
			if len(rec.Phases) == 0 {
				t.Error("no per-phase span deltas captured")
			}
		})
	}

	// ?n= bounds and validates.
	if sl := getSlowlog(t, ts.URL, 1); len(sl.Records) > 1 {
		t.Errorf("n=1 returned %d records", len(sl.Records))
	}
	for _, bad := range []string{"n=bogus", "dataset=..bad"} {
		hr, err := http.Get(ts.URL + "/v1/slowlog?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("?%s: status %d", bad, hr.StatusCode)
		}
	}
}

// siteSum adds up a record's per-site pruning counters.
func siteSum(rec *workload.Record) int64 {
	var sum int64
	for _, n := range rec.PruneSites {
		sum += n
	}
	return sum
}

func getSlowlog(t *testing.T, base string, n int) *SlowlogResponse {
	t.Helper()
	url := base + "/v1/slowlog"
	if n > 0 {
		url += fmt.Sprintf("?n=%d", n)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("slowlog status %d", resp.StatusCode)
	}
	var sl SlowlogResponse
	decodeInto(t, resp, &sl)
	return &sl
}

// TestStatzRollup: /statz carries the schema marker and explicit request-
// duration bucket boundaries matching the registry's, with counts for the
// endpoints that served traffic.
func TestStatzRollup(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		status, _ := postJSON(t, ts.URL+"/v1/query",
			&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2})
		if status != http.StatusOK {
			t.Fatalf("query status %d", status)
		}
	}

	rec := httptest.NewRecorder()
	s.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var doc struct {
		Schema  int                               `json:"schema"`
		Buckets map[string]*obs.HistogramSnapshot `json:"server_request_duration_ms"`
		Slowlog map[string]any                    `json:"slowlog"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad /statz: %v\n%s", err, rec.Body.String())
	}
	if doc.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", doc.Schema, SchemaVersion)
	}
	q, ok := doc.Buckets["query"]
	if !ok {
		t.Fatalf("no query histogram in /statz: %v", doc.Buckets)
	}
	wantBounds := obs.BucketBoundsMS()
	if len(q.BoundsMS) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", q.BoundsMS, wantBounds)
	}
	for i, b := range wantBounds {
		if q.BoundsMS[i] != b {
			t.Errorf("bound[%d] = %v, want %v", i, q.BoundsMS[i], b)
		}
	}
	if len(q.Counts) != len(wantBounds)+1 {
		t.Errorf("%d counts for %d bounds", len(q.Counts), len(wantBounds))
	}
	var sum int64
	for _, n := range q.Counts {
		sum += n
	}
	if sum != q.Count || q.Count < 3 {
		t.Errorf("bucket sum %d, count %d (want >= 3 and equal)", sum, q.Count)
	}
	if doc.Slowlog["enabled"] != false {
		t.Errorf("slowlog.enabled = %v with no SlowQuery config", doc.Slowlog["enabled"])
	}
}

// TestMetricsScrapeUnderLoad: concurrent queries and Prometheus scrapes do
// not race (run with -race) and every scrape parses as exposition text with
// the request families present.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond})
	ops := httptest.NewServer(s.OpsHandler())
	defer ops.Close()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				status, _ := postJSON(t, ts.URL+"/v1/query",
					&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2,
						NoCache: c%2 == 0})
				if status != http.StatusOK {
					t.Errorf("query status %d", status)
					return
				}
			}
		}(c)
	}
	scrape := func() string {
		resp, err := http.Get(ops.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("scrape Content-Type = %q", ct)
		}
		return buf.String()
	}
	for i := 0; i < 10; i++ {
		scrape()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	final := scrape()
	for _, family := range []string{
		"# TYPE server_requests_total counter",
		"# TYPE server_request_duration_ms histogram",
		"# TYPE server_active_requests gauge",
		"# TYPE server_queries_total counter",
		"# TYPE server_slow_queries_total counter",
		`server_requests_total{endpoint="query",status="200"}`,
		`server_request_duration_ms_bucket{endpoint="query",le="+Inf"}`,
	} {
		if !strings.Contains(final, family) {
			t.Errorf("scrape missing %q", family)
		}
	}
}

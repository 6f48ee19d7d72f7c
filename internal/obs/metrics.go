package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The process-wide metrics registry. Counters and gauges are lock-free
// atomics, so hot paths (txdb scans, budget trips, cache lookups) can
// publish live while an HTTP scrape goroutine snapshots concurrently —
// the -race mid-run scrape test locks this property in.

var (
	regMu   sync.Mutex
	regVars = map[string]regEntry{}
	regKeys []string
)

// metricVar is anything the registry can snapshot: value() is the legacy
// JSON form, series() the typed form the Prometheus exposition renders.
type metricVar interface {
	value() any
	series() []Series
}

type regEntry struct {
	v      metricVar
	kind   FamilyKind
	labels []string
}

// register adds a family to the registry, enforcing the naming contract the
// exposition lint tests assert: snake_case names, counters end in _total,
// duration histograms in _ms (unitless value histograms in _ratio), gauges
// in neither.
func register(name string, kind FamilyKind, labels []string, v metricVar) {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", name))
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("obs: counter %q must end in _total", name))
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_ratio") {
			panic(fmt.Sprintf("obs: gauge %q must not carry a counter/histogram suffix", name))
		}
	case KindHistogram:
		if !strings.HasSuffix(name, "_ms") && !strings.HasSuffix(name, "_ratio") {
			panic(fmt.Sprintf("obs: histogram %q must end in _ms (durations) or _ratio (unitless values)", name))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regVars[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	regVars[name] = regEntry{v: v, kind: kind, labels: labels}
	regKeys = append(regKeys, name)
	sort.Strings(regKeys)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	n atomic.Int64
}

// NewCounter registers a counter under the given name.
func NewCounter(name string) *Counter {
	c := &Counter{}
	register(name, KindCounter, nil, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (negative deltas are ignored so counters stay monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// String renders the value (expvar.Var).
func (c *Counter) String() string { return fmt.Sprint(c.n.Load()) }

func (c *Counter) value() any { return c.n.Load() }

func (c *Counter) series() []Series { return []Series{{Value: float64(c.n.Load())}} }

// Gauge is a metric that can move both ways.
type Gauge struct {
	n atomic.Int64
}

// NewGauge registers a gauge under the given name.
func NewGauge(name string) *Gauge {
	g := &Gauge{}
	register(name, KindGauge, nil, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// String renders the value (expvar.Var).
func (g *Gauge) String() string { return fmt.Sprint(g.n.Load()) }

func (g *Gauge) value() any { return g.n.Load() }

func (g *Gauge) series() []Series { return []Series{{Value: float64(g.n.Load())}} }

// histBounds are the histogram bucket upper bounds in milliseconds;
// observations above the last bound land in the +Inf bucket.
var histBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// BucketBoundsMS returns a copy of the registry's histogram bucket upper
// bounds, for consumers (RED rollups, /statz) that need the same shape.
func BucketBoundsMS() []float64 {
	out := make([]float64, len(histBounds))
	copy(out, histBounds)
	return out
}

// Histogram is a fixed-bucket timing histogram (milliseconds). Buckets are
// non-cumulative; SumMS accumulates in microseconds internally for
// precision and reports milliseconds.
type Histogram struct {
	buckets []atomic.Int64 // len(histBounds)+1; last is +Inf
	count   atomic.Int64
	sumUS   atomic.Int64
}

// newHistogram builds an unregistered histogram (vec children).
func newHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, len(histBounds)+1)}
}

// NewHistogram registers a timing histogram under the given name.
func NewHistogram(name string) *Histogram {
	h := newHistogram()
	register(name, KindHistogram, nil, h)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	msv := float64(d) / 1e6
	i := sort.SearchFloat64s(histBounds, msv)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(int64(d / time.Microsecond))
}

// ObserveValue records one unitless observation — for *_ratio value
// histograms, which reuse the registry's bucket
// bounds as plain numbers rather than milliseconds. Negative values clamp
// to zero so the monotone sum stays meaningful.
func (h *Histogram) ObserveValue(v float64) {
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(histBounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(int64(v * 1e3))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot returns the histogram's explicit bucket boundaries and
// non-cumulative counts — the transparent form /statz and the Prometheus
// exposition render (the exposition cumulates them per its convention).
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		BoundsMS: histBounds,
		Counts:   make([]int64, len(h.buckets)),
		Count:    h.count.Load(),
		SumMS:    float64(h.sumUS.Load()) / 1e3,
	}
	for i := range h.buckets {
		snap.Counts[i] = h.buckets[i].Load()
	}
	return snap
}

func (h *Histogram) series() []Series {
	snap := h.Snapshot()
	return []Series{{Hist: &snap}}
}

func (h *Histogram) value() any {
	buckets := map[string]int64{}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			label := "+Inf"
			if i < len(histBounds) {
				label = fmt.Sprintf("%g", histBounds[i])
			}
			buckets[label] = n
		}
	}
	return map[string]any{
		"count":   h.count.Load(),
		"sum_ms":  float64(h.sumUS.Load()) / 1e3,
		"buckets": buckets,
	}
}

// String renders the histogram snapshot as JSON (expvar.Var).
func (h *Histogram) String() string {
	b, _ := json.Marshal(h.value())
	return string(b)
}

// Snapshot returns every registered metric's current value, keyed by name.
// It is safe to call concurrently with metric updates.
func Snapshot() map[string]any {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]any, len(regVars))
	for _, k := range regKeys {
		out[k] = regVars[k].v.value()
	}
	return out
}

// The stack's standard metrics. Counter-shaped mine.Stats dimensions are
// published at the cfq seam when a run completes (PublishStats); db_scans,
// budget trips and session-cache lookups are published live at the point
// they happen, so a mid-run scrape sees progress.
var (
	MQueries        = NewCounter("queries_total")
	MQueryErrors    = NewCounter("query_errors_total")
	MBudgetTrips    = NewCounter("budget_trips_total")
	MDBScans        = NewCounter("db_scans_total")
	MCacheHits      = NewCounter("session_cache_hits_total")
	MCacheMisses    = NewCounter("session_cache_misses_total")
	MCacheAdvances  = NewCounter("session_cache_advances_total")
	MCacheRemines   = NewCounter("session_cache_remines_total")
	MCacheEvictions = NewCounter("session_cache_evictions_total")
	MCacheBytes     = NewGauge("session_cache_bytes")
	MQueryDur       = NewHistogram("query_duration_ms")

	MCandidates   = NewCounter("candidates_counted_total")
	MPruned       = NewCounter("candidates_pruned_total")
	MItemChecks   = NewCounter("item_constraint_checks_total")
	MSetChecks    = NewCounter("set_constraint_checks_total")
	MPairChecks   = NewCounter("pair_checks_total")
	MFrequent     = NewCounter("frequent_sets_total")
	MValid        = NewCounter("valid_sets_total")
	MLatticeBytes = NewCounter("lattice_bytes_total")
	MCheckpoints  = NewCounter("checkpoints_total")
)

// PublishStats folds one completed run's counter set into the global
// metrics. db_scans is deliberately excluded: txdb publishes scans live, and
// double counting would skew the rate.
func PublishStats(c Counters) {
	MCandidates.Add(c["candidates_counted"])
	MPruned.Add(c["candidates_pruned"])
	MItemChecks.Add(c["item_constraint_checks"])
	MSetChecks.Add(c["set_constraint_checks"])
	MPairChecks.Add(c["pair_checks"])
	MFrequent.Add(c["frequent_sets"])
	MValid.Add(c["valid_sets"])
	MLatticeBytes.Add(c["lattice_bytes"])
	MCheckpoints.Add(c["checkpoints"])
}

func init() {
	// Expose the registry through the standard expvar surface as well, so
	// any /debug/vars consumer sees the cfq metrics without custom wiring.
	expvar.Publish("cfq", expvar.Func(func() any { return Snapshot() }))
}

// NewMetricsMux builds the HTTP mux behind cmd/cfq's -metrics-addr flag and
// cfqd's ops port: /metrics (Prometheus text exposition) and /debug/vars
// (standard expvar; its "cfq" var is the registry snapshot as JSON).
func NewMetricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", PromHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

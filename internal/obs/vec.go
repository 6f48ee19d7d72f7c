package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Labeled metric families. A *Vec is a family of children keyed by an
// ordered label-value tuple; children are plain Counters / Gauges /
// Histograms, so the hot path after the first WithLabels call is the same
// lock-free atomic the scalar metrics use. Look the child up once (at
// handler/site setup when the labels are static) and hold it.
//
// Label values are free-form strings; label *names* and family names must
// be snake_case and follow the suffix conventions register() enforces:
// counters end in _total, duration histograms in _ms, gauges in neither.
// The Prometheus exposition (prom.go) and the JSON snapshot both render
// from the same typed Families() view.

// FamilyKind distinguishes the exposition type of a family.
type FamilyKind int

const (
	KindCounter FamilyKind = iota
	KindGauge
	KindHistogram
)

func (k FamilyKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("FamilyKind(%d)", int(k))
}

// HistogramSnapshot is a histogram's point-in-time state: non-cumulative
// per-bucket counts aligned with the upper bounds (Counts has one extra
// trailing entry, the +Inf bucket).
type HistogramSnapshot struct {
	BoundsMS []float64 `json:"bounds_ms"`
	Counts   []int64   `json:"counts"`
	Count    int64     `json:"count"`
	SumMS    float64   `json:"sum_ms"`
}

// Series is one labeled member of a family (scalar families have exactly
// one, with no label values).
type Series struct {
	LabelValues []string
	Value       float64            // counters and gauges
	Hist        *HistogramSnapshot // histograms
}

// Family is the typed snapshot of one registered metric family.
type Family struct {
	Name   string
	Kind   FamilyKind
	Labels []string
	Series []Series
}

// Families snapshots every registered family in name order — the typed
// counterpart of Snapshot, and the single source the Prometheus exposition
// renders from. Safe to call concurrently with metric updates.
func Families() []Family {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Family, 0, len(regVars))
	for _, k := range regKeys {
		e := regVars[k]
		out = append(out, Family{Name: k, Kind: e.kind, Labels: e.labels, Series: e.v.series()})
	}
	return out
}

// vecKey joins label values into a map key. 0xff cannot appear in UTF-8
// text, so the join is unambiguous.
func vecKey(values []string) string { return strings.Join(values, "\xff") }

// vec is the shared child-management core of the three vec types.
type vec[C any] struct {
	name   string
	labels []string
	mu     sync.RWMutex
	kids   map[string]*C
	vals   map[string][]string
	mk     func() *C
}

func newVec[C any](name string, labels []string, mk func() *C) *vec[C] {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec %q needs at least one label", name))
	}
	for _, l := range labels {
		if !nameOK(l) {
			panic(fmt.Sprintf("obs: vec %q has non-snake_case label %q", name, l))
		}
	}
	return &vec[C]{name: name, labels: labels, kids: map[string]*C{}, vals: map[string][]string{}, mk: mk}
}

func (v *vec[C]) with(values []string) *C {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vec %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	k := vecKey(values)
	v.mu.RLock()
	c := v.kids[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.kids[k]; c != nil {
		return c
	}
	c = v.mk()
	v.kids[k] = c
	v.vals[k] = append([]string(nil), values...)
	return c
}

// each visits children in sorted key order (deterministic snapshots).
func (v *vec[C]) each(fn func(values []string, c *C)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(v.vals[k], v.kids[k])
	}
	v.mu.RUnlock()
}

// CounterVec is a family of monotone counters keyed by label values.
type CounterVec struct{ v *vec[Counter] }

// NewCounterVec registers a labeled counter family.
func NewCounterVec(name string, labels ...string) *CounterVec {
	cv := &CounterVec{v: newVec(name, labels, func() *Counter { return &Counter{} })}
	register(name, KindCounter, labels, cv)
	return cv
}

// WithLabels returns (creating on first use) the child for the label tuple.
func (cv *CounterVec) WithLabels(values ...string) *Counter { return cv.v.with(values) }

func (cv *CounterVec) value() any {
	out := map[string]int64{}
	cv.v.each(func(vals []string, c *Counter) { out[strings.Join(vals, ",")] = c.Value() })
	return out
}

func (cv *CounterVec) series() []Series {
	var out []Series
	cv.v.each(func(vals []string, c *Counter) {
		out = append(out, Series{LabelValues: vals, Value: float64(c.Value())})
	})
	return out
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ v *vec[Gauge] }

// NewGaugeVec registers a labeled gauge family.
func NewGaugeVec(name string, labels ...string) *GaugeVec {
	gv := &GaugeVec{v: newVec(name, labels, func() *Gauge { return &Gauge{} })}
	register(name, KindGauge, labels, gv)
	return gv
}

// WithLabels returns (creating on first use) the child for the label tuple.
func (gv *GaugeVec) WithLabels(values ...string) *Gauge { return gv.v.with(values) }

func (gv *GaugeVec) value() any {
	out := map[string]int64{}
	gv.v.each(func(vals []string, g *Gauge) { out[strings.Join(vals, ",")] = g.Value() })
	return out
}

func (gv *GaugeVec) series() []Series {
	var out []Series
	gv.v.each(func(vals []string, g *Gauge) {
		out = append(out, Series{LabelValues: vals, Value: float64(g.Value())})
	})
	return out
}

// HistogramVec is a family of timing histograms keyed by label values.
type HistogramVec struct{ v *vec[Histogram] }

// NewHistogramVec registers a labeled histogram family.
func NewHistogramVec(name string, labels ...string) *HistogramVec {
	hv := &HistogramVec{v: newVec(name, labels, newHistogram)}
	register(name, KindHistogram, labels, hv)
	return hv
}

// WithLabels returns (creating on first use) the child for the label tuple.
func (hv *HistogramVec) WithLabels(values ...string) *Histogram { return hv.v.with(values) }

func (hv *HistogramVec) value() any {
	out := map[string]any{}
	hv.v.each(func(vals []string, h *Histogram) { out[strings.Join(vals, ",")] = h.value() })
	return out
}

func (hv *HistogramVec) series() []Series {
	var out []Series
	hv.v.each(func(vals []string, h *Histogram) {
		snap := h.Snapshot()
		out = append(out, Series{LabelValues: vals, Hist: &snap})
	})
	return out
}

// nameOK reports whether a metric or label name is snake_case
// ([a-z][a-z0-9_]*).
func nameOK(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

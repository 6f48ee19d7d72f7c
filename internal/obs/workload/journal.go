package workload

import (
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// Journal metrics. The record counter is labeled by kind so /v1/query
// records and slow requests on other endpoints stay separable; the slow-query
// counters keep the names they had when the slow log was its own sink.
var (
	mJournalRecords = obs.NewCounterVec("workload_journal_records_total", "kind")
	mJournalDropped = obs.NewCounter("workload_journal_dropped_total")
	mSlowRecords    = obs.NewCounter("server_slow_queries_total")
	mSlowDropped    = obs.NewCounter("server_slowlog_dropped_total")
)

// The sink's bounds are constants: one daemon, one journal, one set of
// values in use.
const (
	// SlowViewRecords bounds the slow view: the newest records marked Slow,
	// held in memory for GET /v1/slowlog.
	SlowViewRecords = 128
	// segmentBytes rotates the active JSONL segment past this size; segments
	// bounds the on-disk ring, whose disk budget is their product.
	segmentBytes = 8 << 20
	segments     = 4
	// rollupClasses bounds the live rollup cardinality; classes beyond it fold
	// into OverflowKey.
	rollupClasses = 64
	// OverflowKey absorbs the keys past a cardinality bound (here the rollup
	// classes; in serve the dataset metric label).
	OverflowKey = "_other"
)

// Journal is the one per-request record sink: a bounded on-disk SegmentRing
// holding every record, the slow view (pointers to the newest Slow records
// among them, so a record served by GET /v1/slowlog is the line on disk),
// and live per-class rollups. All methods are safe for concurrent use.
type Journal struct {
	dir string // "" = no disk ring: the slow view and live rollups only

	mu       sync.Mutex
	slow     []*Record // the slow view, oldest first
	ring     *telemetry.SegmentRing
	classes  map[string]*classAgg
	appended int64
	dropped  int64
	closed   bool
}

// classAgg accumulates the live rollup for one class key (user-facing
// query records only).
type classAgg struct {
	count      int64
	errors     int64
	cached     int64
	sumMS      float64
	maxMS      float64
	sumPruned  int64
	strategies map[string]int64
}

// OpenJournal opens the journal over the on-disk ring under dir, creating
// it if needed and continuing the existing segment numbering, so restarts
// append rather than clobber. An empty dir keeps no ring.
func OpenJournal(dir string) (*Journal, error) {
	j := &Journal{dir: dir, classes: map[string]*classAgg{}}
	if dir == "" {
		return j, nil
	}
	ring, err := telemetry.OpenSegmentRing(dir, "journal", segmentBytes, segments)
	if err != nil {
		return nil, err
	}
	j.ring = ring
	return j, nil
}

// Append records one finished request. A record that cannot be marshalled,
// arrives after Close, or fails its disk write is dropped (counted, never
// blocking the caller) — the journal is evidence, not a ledger. The record
// must not be modified afterwards: the slow view serves the same pointer.
func (j *Journal) Append(rec *Record) {
	if j == nil || rec == nil {
		return
	}
	if rec.Schema == 0 {
		rec.Schema = RecordSchema
	}
	line, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil || j.closed {
		j.dropLocked(rec)
		return
	}
	j.admitLocked(rec)
	if err := j.ring.Append(line); err != nil { // a nil ring (memory-only) accepts everything
		j.dropLocked(rec)
	}
}

// dropLocked is the one drop path: State().Dropped and the drop metrics
// count the same events.
func (j *Journal) dropLocked(rec *Record) {
	j.dropped++
	mJournalDropped.Inc()
	if rec.Slow {
		mSlowDropped.Inc()
	}
}

// admitLocked takes rec into the in-memory state: the counters, the slow
// view and the live rollups.
func (j *Journal) admitLocked(rec *Record) {
	j.appended++
	mJournalRecords.WithLabels(rec.Kind).Inc()
	if rec.Slow {
		mSlowRecords.Inc()
		j.slow = append(j.slow, rec)
		if over := len(j.slow) - SlowViewRecords; over > 0 {
			j.slow = append(j.slow[:0], j.slow[over:]...)
		}
	}
	j.foldLocked(rec)
}

func (j *Journal) foldLocked(rec *Record) {
	if rec.Kind != KindQuery {
		return
	}
	key := rec.Class
	if key == "" {
		key = "unconstrained"
	}
	agg := j.classes[key]
	if agg == nil {
		if len(j.classes) >= rollupClasses {
			key = OverflowKey
			agg = j.classes[key]
		}
		if agg == nil {
			agg = &classAgg{strategies: map[string]int64{}}
			j.classes[key] = agg
		}
	}
	agg.count++
	if rec.Status >= 400 {
		agg.errors++
	}
	if rec.Cached {
		agg.cached++
	}
	agg.sumMS += rec.DurationMS
	if rec.DurationMS > agg.maxMS {
		agg.maxMS = rec.DurationMS
	}
	agg.sumPruned += rec.CandidatesPruned
	if rec.Strategy != "" {
		agg.strategies[rec.Strategy]++
	}
}

// SlowView returns the slow view, newest first.
func (j *Journal) SlowView() []*Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*Record, len(j.slow))
	for i, rec := range j.slow {
		out[len(j.slow)-1-i] = rec
	}
	return out
}

// ClassRollup is the folded per-class view served by GET /v1/workload.
type ClassRollup struct {
	Class      string           `json:"class"`
	Count      int64            `json:"count"`
	Errors     int64            `json:"errors,omitempty"`
	Cached     int64            `json:"cached,omitempty"`
	MeanMS     float64          `json:"mean_ms"`
	MaxMS      float64          `json:"max_ms"`
	MeanPruned float64          `json:"mean_pruned"`
	Strategies map[string]int64 `json:"strategies,omitempty"`
}

// Rollups snapshots the live per-class rollups, busiest class first.
func (j *Journal) Rollups() []ClassRollup {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ClassRollup, 0, len(j.classes))
	for key, agg := range j.classes {
		cr := ClassRollup{
			Class:      key,
			Count:      agg.count,
			Errors:     agg.errors,
			Cached:     agg.cached,
			MaxMS:      agg.maxMS,
			MeanMS:     agg.sumMS / float64(agg.count),
			MeanPruned: float64(agg.sumPruned) / float64(agg.count),
		}
		if len(agg.strategies) > 0 {
			cr.Strategies = make(map[string]int64, len(agg.strategies))
			for s, n := range agg.strategies {
				cr.Strategies[s] = n
			}
		}
		out = append(out, cr)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Count != out[k].Count {
			return out[i].Count > out[k].Count
		}
		return out[i].Class < out[k].Class
	})
	return out
}

// State is the journal's introspection view (/statz, GET /v1/workload).
type State struct {
	Dir         string                      `json:"dir,omitempty"`
	SlowRecords int                         `json:"slow_records"`
	Appended    int64                       `json:"appended"`
	Dropped     int64                       `json:"dropped,omitempty"`
	Classes     int                         `json:"classes"`
	Ring        *telemetry.SegmentRingState `json:"ring,omitempty"`
}

// State snapshots journal occupancy.
func (j *Journal) State() State {
	if j == nil {
		return State{}
	}
	j.mu.Lock()
	ring := j.ring
	st := State{
		Dir:         j.dir,
		SlowRecords: len(j.slow),
		Appended:    j.appended,
		Dropped:     j.dropped,
		Classes:     len(j.classes),
	}
	j.mu.Unlock()
	if ring != nil {
		rs := ring.State()
		st.Ring = &rs
	}
	return st
}

// Close closes the on-disk ring. Further Appends are dropped (counted).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	err := j.ring.Close()
	j.ring = nil
	return err
}

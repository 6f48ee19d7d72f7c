package mine

import (
	"fmt"

	"repro/internal/obs"
)

// Stats accumulates the work counters behind the paper's ccc-optimality
// analysis (Section 6.2): how many candidate sets had their support counted,
// and how many times the constraint-checking operation was invoked — split
// into item-level checks (the |Item| checks a ccc-optimal strategy is
// allowed) and set-level checks (what generate-and-test strategies burn).
// DB scans are tracked on the txdb side; strategies snapshot them.
type Stats struct {
	// CandidatesCounted is the number of candidate sets whose support was
	// counted (the "counting" cost component of ccc-optimality).
	CandidatesCounted int64
	// CandidatesPruned is the number of candidates discarded after
	// generation — by a pushed constraint filter, a frequency test, report
	// filtering, final checks, or pair rejection. Subset-pruned candidates
	// (never materialized past generation) are not counted. Each pruned
	// candidate is also charged to exactly one obs.PruneSet site; the sum
	// over sites equals this total (asserted by tests).
	CandidatesPruned int64
	// ItemConstraintChecks counts constraint-checking invocations on
	// singleton sets (condition (2) of Definition 6 permits only these).
	ItemConstraintChecks int64
	// SetConstraintChecks counts constraint-checking invocations on sets of
	// size ≥ 2. A ccc-optimal strategy performs none during set computation.
	SetConstraintChecks int64
	// PairChecks counts the key comparisons final pair formation made
	// (core.formPairs: binary-search probes for the leading 2-var
	// constraint's partner ranges plus one per constraint tested on a
	// pair; a materialized row costs one more range probe and no test of
	// the leading constraint; each set's aggregate is evaluated once and
	// is not counted).
	// Outside the scope of ccc-optimality, reported for completeness.
	PairChecks int64
	// FrequentSets and ValidSets count discovered frequent sets and the
	// subset of them that are valid.
	FrequentSets int64
	ValidSets    int64
	// DBScans is the number of full passes over the transactions the run
	// made: none for a levelwise run. Level 1 reads the database's per-item
	// supports, level 2 the database generation's pair supports and levels
	// ≥ 3 its item bit columns; the pass that builds those is made once per
	// generation and threshold, recorded in DB.Scans() and in no run's Stats.
	// (The fm strategy, which counts each set with its own scan, adds its
	// scans here.)
	DBScans int64
	// LatticeBytes estimates the memory allocated for lattice state,
	// cumulatively over the run: per-level frequent sets, 4 bytes per level-2
	// cell read, and at each level k ≥ 3 counted the (k−2)·⌈rows/64⌉·8 bytes
	// of prefix ANDs. Budgets bound it via Budget.MaxLatticeBytes. The
	// pair-support table the run reads, columns included, belongs to the
	// database generation and is charged to no run.
	LatticeBytes int64
	// Checkpoints counts cancellation/budget checkpoints passed — the
	// granularity at which a run can be interrupted (and at which
	// faultinject can target it).
	Checkpoints int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CandidatesCounted += other.CandidatesCounted
	s.CandidatesPruned += other.CandidatesPruned
	s.ItemConstraintChecks += other.ItemConstraintChecks
	s.SetConstraintChecks += other.SetConstraintChecks
	s.PairChecks += other.PairChecks
	s.FrequentSets += other.FrequentSets
	s.ValidSets += other.ValidSets
	s.DBScans += other.DBScans
	s.LatticeBytes += other.LatticeBytes
	s.Checkpoints += other.Checkpoints
}

// Minus returns the per-field difference s - prev: the work performed
// between two snapshots, which tracing attributes to one phase span.
func (s Stats) Minus(prev Stats) Stats {
	return Stats{
		CandidatesCounted:    s.CandidatesCounted - prev.CandidatesCounted,
		CandidatesPruned:     s.CandidatesPruned - prev.CandidatesPruned,
		ItemConstraintChecks: s.ItemConstraintChecks - prev.ItemConstraintChecks,
		SetConstraintChecks:  s.SetConstraintChecks - prev.SetConstraintChecks,
		PairChecks:           s.PairChecks - prev.PairChecks,
		FrequentSets:         s.FrequentSets - prev.FrequentSets,
		ValidSets:            s.ValidSets - prev.ValidSets,
		DBScans:              s.DBScans - prev.DBScans,
		LatticeBytes:         s.LatticeBytes - prev.LatticeBytes,
		Checkpoints:          s.Checkpoints - prev.Checkpoints,
	}
}

// Counters converts the stats into the obs span/metric counter form. The
// key names are the observability vocabulary: they appear in span deltas,
// RunReport totals and (suffixed with _total) the metrics registry, and
// IMPLEMENTATION_NOTES maps each to its paper cost component.
func (s Stats) Counters() obs.Counters {
	return obs.Counters{
		"candidates_counted":     s.CandidatesCounted,
		"candidates_pruned":      s.CandidatesPruned,
		"item_constraint_checks": s.ItemConstraintChecks,
		"set_constraint_checks":  s.SetConstraintChecks,
		"pair_checks":            s.PairChecks,
		"frequent_sets":          s.FrequentSets,
		"valid_sets":             s.ValidSets,
		"db_scans":               s.DBScans,
		"lattice_bytes":          s.LatticeBytes,
		"checkpoints":            s.Checkpoints,
	}
}

// FromCounters rebuilds a Stats from its counter form (the inverse of
// Counters; unknown keys are ignored, missing keys are zero).
func FromCounters(c obs.Counters) Stats {
	return Stats{
		CandidatesCounted:    c["candidates_counted"],
		CandidatesPruned:     c["candidates_pruned"],
		ItemConstraintChecks: c["item_constraint_checks"],
		SetConstraintChecks:  c["set_constraint_checks"],
		PairChecks:           c["pair_checks"],
		FrequentSets:         c["frequent_sets"],
		ValidSets:            c["valid_sets"],
		DBScans:              c["db_scans"],
		LatticeBytes:         c["lattice_bytes"],
		Checkpoints:          c["checkpoints"],
	}
}

// String renders the counters on one line.
func (s *Stats) String() string {
	return fmt.Sprintf("counted=%d pruned=%d itemChecks=%d setChecks=%d pairChecks=%d frequent=%d valid=%d scans=%d latticeBytes=%d checkpoints=%d",
		s.CandidatesCounted, s.CandidatesPruned, s.ItemConstraintChecks, s.SetConstraintChecks, s.PairChecks,
		s.FrequentSets, s.ValidSets, s.DBScans, s.LatticeBytes, s.Checkpoints)
}

package cfq

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mine"
)

// Budget caps the resources one query evaluation may consume. Every limit
// is optional (zero disables it); when any is exceeded the evaluation stops
// at the next mining checkpoint and returns a *BudgetError carrying the
// partial work counters. The budget spans the whole evaluation — both
// variable lattices and every optimizer phase draw from one pool.
type Budget struct {
	// MaxCandidates caps the number of candidate sets whose support is
	// counted.
	MaxCandidates int64
	// MaxFrequentSets caps the number of frequent sets discovered.
	MaxFrequentSets int64
	// MaxLatticeBytes caps the estimated memory allocated for lattice
	// state, cumulatively over the run. A run also trips on it, before
	// level 2, when the dataset's shared pair-support table at the run's
	// threshold, item columns included, would alone exceed it.
	MaxLatticeBytes int64
	// Timeout, when positive, is a soft deadline measured from the start
	// of the evaluation. Unlike a context deadline it aborts only at
	// checkpoint boundaries and reports partial progress through the
	// returned *BudgetError — use a context deadline instead if you need
	// the plain context.DeadlineExceeded contract.
	Timeout time.Duration
	// Checkpoint, when non-nil, is invoked at every mining checkpoint with
	// a label describing where evaluation currently is; a non-nil return
	// aborts the run with that error. It is the progress-reporting and
	// fault-injection hook.
	Checkpoint func(where string) error
}

// internal converts the public budget into the engine's stateful form. Each
// evaluation gets a fresh *mine.Budget so consumption never leaks between
// runs; the soft deadline is anchored at now.
func (b *Budget) internal(now time.Time) *mine.Budget {
	if b == nil {
		return nil
	}
	mb := &mine.Budget{
		MaxCandidates:   b.MaxCandidates,
		MaxFrequentSets: b.MaxFrequentSets,
		MaxLatticeBytes: b.MaxLatticeBytes,
		Checkpoint:      b.Checkpoint,
	}
	if b.Timeout > 0 {
		mb.SoftDeadline = now.Add(b.Timeout)
	}
	return mb
}

// Budget-exhaustion resources reported in BudgetError.Resource.
const (
	ResourceCandidates   = mine.ResourceCandidates
	ResourceFrequentSets = mine.ResourceFrequentSets
	ResourceLatticeBytes = mine.ResourceLatticeBytes
	ResourceDeadline     = mine.ResourceDeadline
)

// BudgetError reports that an evaluation stopped because its Budget was
// exhausted. Stats snapshots the work done up to the abort, so partial
// progress is never lost.
type BudgetError struct {
	// Resource names the exhausted dimension (Resource* constants).
	Resource string
	// Where is the mining checkpoint at which the overrun was detected.
	Where string
	// Limit and Used are the configured cap and the observed consumption
	// (zero for deadline overruns).
	Limit, Used int64
	// Stats is the partial-progress snapshot.
	Stats Stats
}

// Error renders the overrun.
func (e *BudgetError) Error() string {
	if e.Resource == ResourceDeadline {
		return fmt.Sprintf("cfq: budget timeout exceeded at %s", e.Where)
	}
	return fmt.Sprintf("cfq: %s budget exhausted at %s: used %d of %d",
		e.Resource, e.Where, e.Used, e.Limit)
}

// convertErr translates engine errors into their public forms at the API
// seam. Context errors pass through unchanged (errors.Is sees
// context.Canceled / context.DeadlineExceeded through the engine's
// wrapping).
func convertErr(err error) error {
	if err == nil {
		return nil
	}
	var be *mine.BudgetError
	if errors.As(err, &be) {
		return &BudgetError{
			Resource: be.Resource,
			Where:    be.Where,
			Limit:    be.Limit,
			Used:     be.Used,
			Stats:    convertStats(be.Stats),
		}
	}
	return err
}

// recoverToError is the panic boundary of the public API: internal panics
// (e.g. malformed data reaching invariants-checked constructors) surface as
// errors instead of crashing the caller.
func recoverToError(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("cfq: internal error: %v", r)
	}
}

package mine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Budget caps the resources one query evaluation may consume. A zero limit
// disables that dimension. A Budget accumulates consumption across every
// miner it is handed to (both lattices of a dovetailed CFQ), so it expresses
// a per-query limit, not a per-miner one. Budgets are stateful: use a fresh
// Budget for each evaluation and share it by pointer.
type Budget struct {
	// MaxCandidates caps the number of candidate sets whose support is
	// counted (Stats.CandidatesCounted).
	MaxCandidates int64
	// MaxFrequentSets caps the number of frequent sets discovered
	// (Stats.FrequentSets).
	MaxFrequentSets int64
	// MaxLatticeBytes caps the estimated memory allocated for lattice
	// state (Stats.LatticeBytes) — candidate sets, per-level frequent sets
	// and the prefix ANDs of levels ≥ 3. The estimate is cumulative over the
	// run, so it bounds allocation pressure rather than live heap. It also
	// refuses the database's pair-support table when a table at the run's
	// threshold, item columns included, would alone exceed it
	// (txdb.DB.PairSupportsBytes), though the table is charged to no run.
	MaxLatticeBytes int64
	// SoftDeadline, when non-zero, aborts mining at the first checkpoint
	// past this instant with a *BudgetError (reason "deadline"). Unlike a
	// context deadline it never interrupts a counting batch midway and it
	// reports partial progress through the error's Stats.
	SoftDeadline time.Time
	// Checkpoint, when non-nil, is invoked at every cancellation
	// checkpoint with a label describing where mining currently is. A
	// non-nil return aborts mining with that error (a *BudgetError is
	// propagated as such, with Where and Stats filled in). This is the
	// fault-injection and observability hook: internal/faultinject wires
	// deterministic failures through it, and callers can use it for
	// progress reporting or custom abort policies.
	Checkpoint func(where string) error

	// Shared consumption totals, published by every Guard drawing from
	// this budget.
	candidates atomic.Int64
	frequent   atomic.Int64
	bytes      atomic.Int64
}

// Used reports the consumption published to the budget so far.
func (b *Budget) Used() (candidates, frequentSets, latticeBytes int64) {
	return b.candidates.Load(), b.frequent.Load(), b.bytes.Load()
}

// Budget-exhaustion resources reported in BudgetError.Resource.
const (
	ResourceCandidates   = "candidates"
	ResourceFrequentSets = "frequent-sets"
	ResourceLatticeBytes = "lattice-bytes"
	ResourceDeadline     = "deadline"
)

// BudgetError reports that mining stopped because a resource budget was
// exhausted. It carries a snapshot of the work counters at the moment of
// the abort, so callers can report partial progress instead of losing it.
type BudgetError struct {
	// Resource names the exhausted dimension (Resource* constants).
	Resource string
	// Where is the checkpoint label at which the overrun was detected.
	Where string
	// Limit and Used are the configured cap and the consumption observed
	// (Used/Limit are zero for deadline overruns).
	Limit, Used int64
	// Stats is the partial-progress snapshot of the aborting miner.
	Stats Stats
}

// Error renders the overrun.
func (e *BudgetError) Error() string {
	if e.Resource == ResourceDeadline {
		return fmt.Sprintf("mine: soft deadline exceeded at %s", e.Where)
	}
	return fmt.Sprintf("mine: %s budget exhausted at %s: used %d of %d",
		e.Resource, e.Where, e.Used, e.Limit)
}

// Guard bundles the runtime controls threaded through one miner: the
// cancellation context, the (optional, shared) resource budget, and the
// stats the budget is charged from. Each miner owns one Guard and calls
// Check at its checkpoints; a Guard is not safe for concurrent use (the
// goroutines of a pair-support build poll the context directly instead).
type Guard struct {
	ctx    context.Context
	budget *Budget
	stats  *Stats

	// Last published stats values, so a budget shared across sequential
	// miners that also share a Stats (one Config.Stats reused) is charged
	// each increment exactly once.
	lastCand, lastFreq, lastBytes int64
}

// NewGuard creates a Guard. A nil ctx means context.Background(); a nil
// budget disables resource limits; a nil stats gets a private scratch
// counter set.
func NewGuard(ctx context.Context, budget *Budget, stats *Stats) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Guard{
		ctx:       ctx,
		budget:    budget,
		stats:     stats,
		lastCand:  stats.CandidatesCounted,
		lastFreq:  stats.FrequentSets,
		lastBytes: stats.LatticeBytes,
	}
}

// Ctx returns the guard's context, for the pair-support build, which polls
// cancellation directly.
func (g *Guard) Ctx() context.Context { return g.ctx }

// Check is a cancellation/budget checkpoint. It consults, in order: the
// fault-injection hook, context cancellation, and the budget's limits
// (charging this guard's stats increments to the shared totals first). The
// returned error wraps where mining stopped; ctx.Err() is reachable through
// errors.Is, and budget overruns are a *BudgetError carrying partial Stats.
func (g *Guard) Check(where string) error {
	g.stats.Checkpoints++
	b := g.budget
	if b != nil && b.Checkpoint != nil {
		if err := b.Checkpoint(where); err != nil {
			var be *BudgetError
			if errors.As(err, &be) {
				if be.Where == "" {
					be.Where = where
				}
				be.Stats = *g.stats
				return be
			}
			return fmt.Errorf("mine: %s: %w", where, err)
		}
	}
	if err := g.ctx.Err(); err != nil {
		return fmt.Errorf("mine: %s: %w", where, err)
	}
	if b == nil {
		return nil
	}
	publish := func(total *atomic.Int64, cur int64, last *int64) int64 {
		d := cur - *last
		*last = cur
		if d == 0 {
			return total.Load()
		}
		return total.Add(d)
	}
	cand := publish(&b.candidates, g.stats.CandidatesCounted, &g.lastCand)
	freq := publish(&b.frequent, g.stats.FrequentSets, &g.lastFreq)
	bytes := publish(&b.bytes, g.stats.LatticeBytes, &g.lastBytes)
	switch {
	case b.MaxCandidates > 0 && cand > b.MaxCandidates:
		return g.overrun(where, ResourceCandidates, b.MaxCandidates, cand)
	case b.MaxFrequentSets > 0 && freq > b.MaxFrequentSets:
		return g.overrun(where, ResourceFrequentSets, b.MaxFrequentSets, freq)
	case b.MaxLatticeBytes > 0 && bytes > b.MaxLatticeBytes:
		return g.overrun(where, ResourceLatticeBytes, b.MaxLatticeBytes, bytes)
	}
	if !b.SoftDeadline.IsZero() && time.Now().After(b.SoftDeadline) {
		return g.overrun(where, ResourceDeadline, 0, 0)
	}
	return nil
}

func (g *Guard) overrun(where, resource string, limit, used int64) error {
	obs.MBudgetTrips.Inc()
	return &BudgetError{Resource: resource, Where: where, Limit: limit, Used: used, Stats: *g.stats}
}

// setBytes estimates the lattice memory retained for one stored k-itemset:
// the rank-space candidate, the original-space copy, and hash-key overhead.
func setBytes(k int) int64 { return int64(16*k + 64) }

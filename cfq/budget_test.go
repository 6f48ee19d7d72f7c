package cfq

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/itemset"
)

// budgetQuery is the 2-var query the abort tests run: enough work on both
// lattices that checkpoints are plentiful.
func budgetQuery(ds *Dataset) *Query {
	return NewQuery(ds).MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price"))
}

// TestRunContextFaultInjection aborts the baseline and both schedules of
// the optimizer at their first, middle, and last checkpoint and checks that
// a clean re-run still returns the baseline answer. The checkpoint counts
// are pinned: sequential steps phase-1 S, phase-1 T, all of T, then all of
// S, and a refactor of the pipeline must not add or drop a checkpoint.
func TestRunContextFaultInjection(t *testing.T) {
	ds := marketDataset(t)
	for _, st := range []struct {
		name        string
		s           Strategy
		checkpoints int64
	}{{"optimized", Optimized, 36}, {"apriori", AprioriPlus, 34}, {"sequential", Sequential, 36}} {
		t.Run(st.name, func(t *testing.T) {
			baseline, err := budgetQuery(ds).Run(st.s)
			if err != nil {
				t.Fatal(err)
			}
			probe := faultinject.Count()
			if _, err := budgetQuery(ds).Budget(Budget{Checkpoint: probe.Checkpoint}).Run(st.s); err != nil {
				t.Fatal(err)
			}
			n := probe.Seen()
			if n != st.checkpoints {
				t.Fatalf("%d checkpoints, want %d", n, st.checkpoints)
			}
			for _, at := range []int64{1, (n + 1) / 2, n} {
				inj := faultinject.Fail(at, nil)
				_, err := budgetQuery(ds).Budget(Budget{Checkpoint: inj.Checkpoint}).
					RunContext(context.Background(), st.s)
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("inject at %d/%d: err = %v", at, n, err)
				}
				again, err := budgetQuery(ds).Run(st.s)
				if err != nil {
					t.Fatalf("re-run after abort at %d: %v", at, err)
				}
				if strings.Join(pairKeys(again), ";") != strings.Join(pairKeys(baseline), ";") {
					t.Errorf("abort at %d/%d changed a later clean run", at, n)
				}
			}
		})
	}
}

// TestRunContextBudgetError: an exhausted candidate budget surfaces as the
// public *BudgetError with the partial work counters attached.
func TestRunContextBudgetError(t *testing.T) {
	ds := marketDataset(t)
	_, err := budgetQuery(ds).Budget(Budget{MaxCandidates: 1}).
		RunContext(context.Background(), Optimized)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *cfq.BudgetError", err)
	}
	if be.Resource != ResourceCandidates {
		t.Errorf("Resource = %q", be.Resource)
	}
	if be.Where == "" {
		t.Error("Where is empty")
	}
	if be.Stats.Checkpoints == 0 {
		t.Error("partial stats not populated")
	}
	if !strings.Contains(be.Error(), "budget exhausted") {
		t.Errorf("Error() = %q", be.Error())
	}
}

// TestBudgetTripStatsAreRunTotals: a trip's partial Stats are the whole
// run's counters up to the abort, not the tripping miner's alone, so its
// CandidatesPruned equals the sites the PruneSet was charged at. Under
// optimized, MaxCandidates 15 trips in T's level 2 after S pruned 4, which
// the tripping miner's own counters do not hold; the sweep covers every
// schedule (dovetail, T-then-S, side by side) at every limit that trips.
func TestBudgetTripStatsAreRunTotals(t *testing.T) {
	ds := marketDataset(t)
	for _, st := range []Strategy{Optimized, Sequential, AprioriPlus} {
		sawPruning := false
		for limit := int64(1); limit <= 40; limit++ {
			prune := NewPruneSet()
			_, err := budgetQuery(ds).Budget(Budget{MaxCandidates: limit}).
				RunContext(WithPruning(context.Background(), prune), st)
			var be *BudgetError
			if !errors.As(err, &be) {
				continue
			}
			if got, want := be.Stats.CandidatesPruned, prune.Total(); got != want {
				t.Errorf("%v MaxCandidates %d (%s): CandidatesPruned %d, sites sum %d",
					st, limit, be.Where, got, want)
			}
			sawPruning = sawPruning || prune.Total() > 0
		}
		if !sawPruning {
			t.Errorf("%v: no trip after any pruning; the sweep tests nothing", st)
		}
	}
}

// TestRunContextTimeout: the soft Timeout reports a deadline BudgetError;
// a real context deadline reports context.DeadlineExceeded.
func TestRunContextTimeout(t *testing.T) {
	ds := marketDataset(t)
	_, err := budgetQuery(ds).Budget(Budget{Timeout: time.Nanosecond}).
		RunContext(context.Background(), Optimized)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != ResourceDeadline {
		t.Fatalf("soft timeout: err = %v, want deadline BudgetError", err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = budgetQuery(ds).RunContext(ctx, Optimized)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx deadline: err = %v", err)
	}
}

// TestRunContextCancelled: a pre-cancelled context aborts every strategy
// with context.Canceled reachable through the wrapping.
func TestRunContextCancelled(t *testing.T) {
	ds := marketDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, st := range []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, FM, Sequential} {
		if _, err := budgetQuery(ds).RunContext(ctx, st); !errors.Is(err, context.Canceled) {
			t.Errorf("strategy %v: err = %v, want context.Canceled", st, err)
		}
	}
}

// TestSessionCancelledThenRetried: a run cancelled mid-mining writes nothing
// to the session cache; retrying the same query succeeds and matches a fresh
// session exactly.
func TestSessionCancelledThenRetried(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.Cancel(1, cancel)
	q := budgetQuery(ds).Budget(Budget{Checkpoint: inj.Checkpoint})
	if _, err := sess.RunContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	if cs := sess.CacheStats(); cs.Misses != 0 || cs.Hits != 0 {
		t.Fatalf("aborted run touched the cache: hits=%d misses=%d", cs.Hits, cs.Misses)
	}

	// Retry on the same session vs a brand-new one.
	retried, err := sess.Run(budgetQuery(ds))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	fresh, err := NewSession(ds).Run(budgetQuery(ds))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pairKeys(retried), ";") != strings.Join(pairKeys(fresh), ";") ||
		retried.PairCount != fresh.PairCount {
		t.Error("retried session differs from a fresh session")
	}
	if cs := sess.CacheStats(); cs.Misses != 1 {
		t.Errorf("misses after retry = %d, want 1 (cache was not poisoned)", cs.Misses)
	}
}

// TestSessionBudgetError: budget exhaustion inside a session run surfaces as
// the public error type and also leaves the cache unwritten.
func TestSessionBudgetError(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	q := budgetQuery(ds).Budget(Budget{MaxFrequentSets: 1})
	_, err := sess.Run(q)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != ResourceFrequentSets {
		t.Fatalf("err = %v, want frequent-sets BudgetError", err)
	}
	if cs := sess.CacheStats(); cs.Misses != 0 {
		t.Error("aborted run cached a partial lattice")
	}
	if _, err := sess.Run(budgetQuery(ds)); err != nil {
		t.Fatalf("retry without budget: %v", err)
	}
}

// TestMalformedTransactionSurfacesAsError: a transaction violating the
// itemset invariants (injected past the validating mutators, as a buggy
// integration might) must surface as an error from the public API, never as
// a panic.
func TestMalformedTransactionSurfacesAsError(t *testing.T) {
	ds := NewDataset(6)
	if err := ds.SetNumeric("Price", []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTransaction(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	// A non-monotone raw set: itemset.New would have sorted it, so this can
	// only arrive through a code path that skips validation.
	ds.txs = append(ds.txs, itemset.Set{3, 1, 2})
	ds.dirty = true

	_, err := NewQuery(ds).MinSupport(1).Run(Optimized)
	if err == nil {
		t.Fatal("malformed transaction accepted")
	}
	if !strings.Contains(err.Error(), "cfq: internal error") {
		t.Errorf("err = %v, want the cfq panic-boundary wrapping", err)
	}
	// The same boundary guards session runs.
	if _, err := NewSession(ds).Run(NewQuery(ds).MinSupport(1)); err == nil {
		t.Error("session accepted malformed transaction")
	}
}

// TestReadTransactionsMalformed: malformed text input errors cleanly.
func TestReadTransactionsMalformed(t *testing.T) {
	ds := NewDataset(4)
	if err := ds.ReadTransactions(strings.NewReader("0 1\n2 x\n")); err == nil {
		t.Error("bad token accepted")
	}
	if err := ds.ReadTransactions(strings.NewReader("0 1\n2 9\n")); err == nil {
		t.Error("out-of-domain item accepted")
	}
}

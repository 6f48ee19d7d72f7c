package mine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/txdb"
)

// minerCase is one row of the fault-injection sweep. Levelwise is the only
// miner; the table keeps its one row so the …/levelwise subtest names the
// recorded test floor lists do not move.
type minerCase struct {
	name string
	run  func(ctx context.Context, db *txdb.DB, b *Budget, s *Stats) ([][]Counted, error)
}

func allMiners() []minerCase {
	return []minerCase{
		{"levelwise", func(ctx context.Context, db *txdb.DB, b *Budget, s *Stats) ([][]Counted, error) {
			return AllFrequent(ctx, db, 2, nil, b, s)
		}},
	}
}

// TestFaultInjectionAllMiners aborts every miner at its first, middle, and
// last checkpoint, and checks that (a) the injected error surfaces wrapped
// but errors.Is-reachable, and (b) an immediate clean re-run returns exactly
// the baseline result — aborting leaves no residue.
func TestFaultInjectionAllMiners(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	db := randomDB(r, 120, 10, 6)
	for _, m := range allMiners() {
		t.Run(m.name, func(t *testing.T) {
			probe := faultinject.Count()
			baseline, err := m.run(context.Background(), db, &Budget{Checkpoint: probe.Checkpoint}, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := probe.Seen()
			if n < 3 {
				t.Fatalf("only %d checkpoints; first/middle/last are not distinct", n)
			}
			want := flatten(baseline)
			for _, at := range []int64{1, (n + 1) / 2, n} {
				inj := faultinject.Fail(at, nil)
				_, err := m.run(context.Background(), db, &Budget{Checkpoint: inj.Checkpoint}, nil)
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("inject at %d/%d: err = %v, want ErrInjected", at, n, err)
				}
				if fired, where := inj.Fired(); !fired || where == "" {
					t.Fatalf("inject at %d/%d: fired=%v where=%q", at, n, fired, where)
				}
				// Clean re-run after the abort must match the baseline.
				again, err := m.run(context.Background(), db, nil, nil)
				if err != nil {
					t.Fatalf("re-run after abort at %d: %v", at, err)
				}
				if !mapsEqual(flatten(again), want) {
					t.Errorf("re-run after abort at %d/%d differs from baseline", at, n)
				}
			}
		})
	}
}

// TestCancellationAllMiners: a cancellation landing mid-run (delivered at a
// checkpoint, exactly as an external cancel would) surfaces as a wrapped
// context.Canceled from every miner.
func TestCancellationAllMiners(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	db := randomDB(r, 120, 10, 6)
	for _, m := range allMiners() {
		t.Run(m.name, func(t *testing.T) {
			probe := faultinject.Count()
			if _, err := m.run(context.Background(), db, &Budget{Checkpoint: probe.Checkpoint}, nil); err != nil {
				t.Fatal(err)
			}
			mid := (probe.Seen() + 1) / 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := faultinject.Cancel(mid, cancel)
			_, err := m.run(ctx, db, &Budget{Checkpoint: inj.Checkpoint}, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Pre-cancelled context: the miner must not start real work.
			done, cancel2 := context.WithCancel(context.Background())
			cancel2()
			if _, err := m.run(done, db, nil, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled ctx: err = %v", err)
			}
		})
	}
}

// TestBudgetExhaustionTyped: each resource limit produces a *BudgetError
// naming the resource, the checkpoint, and carrying non-empty partial stats.
func TestBudgetExhaustionTyped(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	db := randomDB(r, 120, 10, 6)
	cases := []struct {
		resource string
		budget   func() *Budget // fresh per run: budgets are stateful
	}{
		{ResourceCandidates, func() *Budget { return &Budget{MaxCandidates: 1} }},
		{ResourceFrequentSets, func() *Budget { return &Budget{MaxFrequentSets: 1} }},
		{ResourceLatticeBytes, func() *Budget { return &Budget{MaxLatticeBytes: 1} }},
		{ResourceDeadline, func() *Budget { return &Budget{SoftDeadline: time.Now().Add(-time.Second)} }},
	}
	for _, m := range allMiners() {
		for _, c := range cases {
			t.Run(m.name+"/"+c.resource, func(t *testing.T) {
				stats := &Stats{}
				_, err := m.run(context.Background(), db, c.budget(), stats)
				var be *BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("err = %v, want *BudgetError", err)
				}
				if be.Resource != c.resource {
					t.Errorf("Resource = %q, want %q", be.Resource, c.resource)
				}
				if be.Where == "" {
					t.Error("Where is empty")
				}
				if be.Stats.Checkpoints == 0 {
					t.Error("partial stats not populated")
				}
				if c.resource != ResourceDeadline && be.Used <= be.Limit {
					t.Errorf("Used %d <= Limit %d", be.Used, be.Limit)
				}
			})
		}
	}
}

// TestSoftDeadlineTripsWithinClockStride: a soft deadline that passes while
// a guard is running trips within deadlineEvery checkpoints — at the first
// checkpoint whose index is a multiple of deadlineEvery — and every
// checkpoint before the trip is still counted and still calls the hook.
func TestSoftDeadlineTripsWithinClockStride(t *testing.T) {
	for _, passAt := range []int64{0, 1, 5, deadlineEvery - 1, deadlineEvery, 3*deadlineEvery + 7} {
		b := &Budget{}
		var hooked int64
		b.Checkpoint = func(string) error {
			if hooked == passAt {
				b.SoftDeadline = time.Now().Add(-time.Second)
			}
			hooked++
			return nil
		}
		stats := &Stats{}
		g := NewGuard(context.Background(), b, stats)
		var err error
		for i := int64(0); err == nil && i < passAt+2*deadlineEvery; i++ {
			err = g.Check("level 2: counting")
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != ResourceDeadline || be.Where != "level 2: counting" {
			t.Fatalf("deadline passed at checkpoint %d: err = %v, want a deadline *BudgetError", passAt, err)
		}
		tripAt := stats.Checkpoints - 1
		if tripAt < passAt || tripAt-passAt >= deadlineEvery || tripAt%deadlineEvery != 0 {
			t.Errorf("deadline passed at checkpoint %d tripped at %d, want the next multiple of %d", passAt, tripAt, deadlineEvery)
		}
		if hooked != stats.Checkpoints || be.Stats.Checkpoints != stats.Checkpoints {
			t.Errorf("hook called %d times, %d checkpoints counted, error carries %d", hooked, stats.Checkpoints, be.Stats.Checkpoints)
		}
	}
}

// TestBudgetAbortsWithinOneCheckpoint: with MaxCandidates = 1, levelwise
// counting must stop before finishing level 1 wholesale — consumption when
// the error surfaces may overshoot by at most one checkpoint batch.
func TestBudgetAbortsWithinOneCheckpoint(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	db := randomDB(r, 200, 12, 7)
	b := &Budget{MaxCandidates: 1}
	_, err := AllFrequent(context.Background(), db, 2, nil, b, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v", err)
	}
	cand, _, _ := b.Used()
	// Level-1 counting publishes all singleton candidates at once; that is
	// the one-checkpoint granularity bound.
	if cand > 12 {
		t.Errorf("candidates charged %d, want <= one checkpoint batch (12)", cand)
	}
}

// TestBudgetSharedAcrossMiners: sequential miners drawing from one budget
// pool charge it cumulatively — the second run trips a limit the first
// consumed most of.
func TestBudgetSharedAcrossMiners(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	db := randomDB(r, 60, 8, 5)
	probe, err := AllFrequent(context.Background(), db, 2, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, lv := range probe {
		total += int64(len(lv))
	}
	if total < 2 {
		t.Skip("database too sparse")
	}
	// Allow ~1.5 full runs worth of frequent sets: run one succeeds, run two
	// must exhaust the shared pool.
	b := &Budget{MaxFrequentSets: total + total/2}
	if _, err := AllFrequent(context.Background(), db, 2, nil, b, nil); err != nil {
		t.Fatalf("first run: %v", err)
	}
	_, err = AllFrequent(context.Background(), db, 2, nil, b, nil)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != ResourceFrequentSets {
		t.Fatalf("second run: err = %v, want frequent-sets BudgetError", err)
	}
}

// TestNoGoroutineLeakOnCancel: cancelling a parallel counting run must not
// strand worker goroutines — they rejoin before the miner returns.
func TestNoGoroutineLeakOnCancel(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	db := randomDB(r, 4000, 14, 8)
	// Calibrate: how many checkpoints does a full parallel run pass?
	probe := faultinject.Count()
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2, Workers: 4, Budget: &Budget{Checkpoint: probe.Checkpoint}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lw.RunAll(); err != nil {
		t.Fatal(err)
	}
	mid := (probe.Seen() + 1) / 2
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		inj := faultinject.Cancel(mid, cancel)
		lw, err := New(ctx, Config{DB: db, MinSupport: 2, Workers: 4, Budget: &Budget{Checkpoint: inj.Checkpoint}})
		if err == nil {
			_, err = lw.RunAll()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}
	// Workers always rejoin via wg.Wait before RunAll returns, so the count
	// settles immediately; poll briefly to absorb runtime noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestErrLatched: after an aborted Step, the Levelwise is done and Err
// returns the same error on every later call.
func TestErrLatched(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	db := randomDB(r, 80, 9, 5)
	// Aim the fault at the first checkpoint after construction (New passes
	// none itself) so it lands in Step.
	probe := faultinject.Count()
	if _, err := New(context.Background(), Config{DB: db, MinSupport: 2, Budget: &Budget{Checkpoint: probe.Checkpoint}}); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.Fail(probe.Seen()+1, nil)
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2, Budget: &Budget{Checkpoint: inj.Checkpoint}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = lw.Step()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Step err = %v", err)
	}
	if !lw.Done() {
		t.Error("miner not done after abort")
	}
	if sets, done, err2 := lw.Step(); sets != nil || !done || !errors.Is(err2, faultinject.ErrInjected) {
		t.Errorf("Step after abort = (%v, %v, %v)", sets, done, err2)
	}
	if !errors.Is(lw.Err(), faultinject.ErrInjected) {
		t.Errorf("Err() = %v", lw.Err())
	}
}

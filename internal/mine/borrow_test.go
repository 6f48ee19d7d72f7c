package mine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// filterCalls mines db under cfg — level 1 by Step, every later level by
// step — with a check that rejects sets whose item ids sum past bound, and
// returns every set its condition was handed as "level:items", copied during
// the call.
func filterCalls(t *testing.T, db *txdb.DB, cfg Config, bound int,
	step func(*Levelwise) ([]Counted, error)) []string {
	t.Helper()
	var calls []string
	cfg.DB = db
	cfg.Checks = filterChecks(func(level int, s itemset.Set) bool {
		calls = append(calls, fmt.Sprintf("%d:%v", level, []itemset.Item(s)))
		sum := 0
		for _, it := range s {
			sum += int(it)
		}
		return sum <= bound
	}, nil)
	lw, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for first := true; !lw.Done(); first = false {
		if first {
			_, _, err = lw.Step()
		} else if _, err = step(lw); err == nil {
			lw.finishLevelCheck()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return calls
}

// TestCandidateFilterSeesCandidate: from level 2 on a check's condition
// borrows the miner's one scratch set, and every call still sees exactly
// toOrig(candidate) — the set, in original item space and sorted, that the
// reference step hands the condition — at levels 1 to 4, with and without a
// Required class. The class holds the higher items, so its ranks are not item
// order and the scratch set must be sorted.
func TestCandidateFilterSeesCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const items = 12
	db := randomDB(r, 600, items, 9)
	support := supportOracle(db)
	reference := func(l *Levelwise) ([]Counted, error) { return l.referenceStep(support) }
	step := func(l *Levelwise) ([]Counted, error) {
		out, _, err := l.Step()
		return out, err
	}
	for _, required := range []itemset.Set{nil, itemset.New(7, 8, 9, 10, 11)} {
		cfg := Config{MinSupport: 20, Required: required, MaxLevel: 4}
		got := filterCalls(t, db, cfg, 30, step)
		want := filterCalls(t, db, cfg, 30, reference)
		if !slices.Equal(got, want) {
			t.Fatalf("required=%v: the filter saw\n%v\nthe reference hands it\n%v", required, got, want)
		}
		for level := 1; level <= 4; level++ {
			prefix := fmt.Sprintf("%d:", level)
			if !slices.ContainsFunc(got, func(c string) bool { return c[:2] == prefix }) {
				t.Fatalf("required=%v: no filter call at level %d (calls %v)", required, level, got)
			}
		}
	}
}

// TestFilteredLevelTwoAllocs: a filtered level-2 step allocates the same
// whether it walks C(100, 2) or C(300, 2) cells — the condition's set is
// borrowed, not allocated per cell. Every item is frequent and no pair is,
// so the level keeps no set of its own.
func TestFilteredLevelTwoAllocs(t *testing.T) {
	allocs := func(items int) float64 {
		const minSup, runs = 2, 5
		txs := make([]itemset.Set, 0, minSup*items)
		for it := 0; it < items; it++ {
			for range minSup {
				txs = append(txs, itemset.New(itemset.Item(it)))
			}
		}
		db := txdb.New(txs)
		cfg := Config{DB: db, MinSupport: minSup, Checks: filterChecks(func(level int, s itemset.Set) bool {
			return level < 2 || int(s[0]+s[1])%3 != 0
		}, nil)}
		miners := make([]*Levelwise, runs+1) // AllocsPerRun calls once more to warm up
		for i := range miners {
			lw, err := New(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := lw.Step(); err != nil {
				t.Fatal(err)
			}
			if len(lw.l1Ranks) != items {
				t.Fatalf("%d frequent items, want %d", len(lw.l1Ranks), items)
			}
			miners[i] = lw
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			lw := miners[next]
			next++
			if _, _, err := lw.Step(); err != nil || lw.Level() != 2 || len(lw.prevSets) != 0 {
				t.Fatalf("level %d, %d frequent pairs, err %v", lw.Level(), len(lw.prevSets), err)
			}
		})
	}
	small, large := allocs(100), allocs(300)
	if large > small {
		t.Errorf("level 2 allocates %v times over C(300, 2) cells, %v over C(100, 2): it grows with the cells", large, small)
	}
}

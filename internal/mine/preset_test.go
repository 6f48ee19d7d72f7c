package mine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// TestPresetL1SkipsCounting: with preset level-1 results the first step
// must perform no counting pass and charge no candidates, and later levels
// must behave exactly as in a fresh run.
func TestPresetL1SkipsCounting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 40, 8, 5)

	fresh, err := New(context.Background(), Config{DB: db, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Step()
	preset := fresh.FrequentItemCounts()
	want := flatten(runAll(fresh))
	// RunAll above continued from level 1, so re-mine fresh for the full
	// reference.
	ref, _ := AllFrequent(context.Background(), db, 2, nil, nil, nil)
	_ = want
	wantAll := flatten(ref)

	stats := &Stats{}
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2, PresetL1: preset, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	scansBefore := stats.DBScans // New makes no pass
	lw.Step()
	if stats.DBScans != scansBefore {
		t.Errorf("preset level 1 performed a counting scan")
	}
	if stats.CandidatesCounted != 0 {
		t.Errorf("preset level 1 charged %d candidates", stats.CandidatesCounted)
	}
	got := map[string]int{}
	for _, c := range lw.FrequentItemCounts() {
		got[c.Set.Key()] = c.Support
	}
	for _, c := range preset {
		if got[c.Set.Key()] != c.Support {
			t.Errorf("preset support lost for %v", c.Set)
		}
	}
	// Finish mining: results must match a fresh full run.
	all := map[string]int{}
	for _, c := range lw.FrequentItemCounts() {
		all[c.Set.Key()] = c.Support
	}
	for !lw.Done() {
		sets, _, _ := lw.Step()
		for _, c := range sets {
			all[c.Set.Key()] = c.Support
		}
	}
	if !mapsEqual(all, wantAll) {
		t.Errorf("preset run diverged: %d sets vs %d", len(all), len(wantAll))
	}
}

// TestPresetL1Filtering: preset entries outside the domain are ignored and
// entries failing the candidate filter are dropped. An entry that claims more
// support than the database gives its item is taken as given at level 1; the
// pair supports do not cover the item, and level 2 reads its pairs as
// infrequent, which they are.
func TestPresetL1Filtering(t *testing.T) {
	db := txdb.New([]itemset.Set{itemset.New(0, 1, 2, 3, 4), itemset.New(1, 2, 3)})
	preset := []Counted{
		{Set: itemset.New(0), Support: 2}, // the database gives it 1
		{Set: itemset.New(1), Support: 2},
		{Set: itemset.New(2), Support: 2},
		{Set: itemset.New(4), Support: 2},    // the database gives it 1
		{Set: itemset.New(9), Support: 2},    // outside domain
		{Set: itemset.New(1, 2), Support: 2}, // not a singleton: ignored
	}
	lw, err := New(context.Background(), Config{
		DB: db, MinSupport: 2,
		Domain:   itemset.New(0, 1, 2, 3, 4),
		PresetL1: preset,
		Checks: filterChecks(func(_ int, s itemset.Set) bool {
			return !s.Contains(2) // drop item 2
		}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, _ := lw.Step()
	if len(sets) != 3 || !sets[0].Set.Equal(itemset.New(0)) || !sets[1].Set.Equal(itemset.New(1)) || !sets[2].Set.Equal(itemset.New(4)) {
		t.Errorf("level 1 = %v", sets)
	}
	if sets, done, err := lw.Step(); err != nil || len(sets) != 0 || !done {
		t.Errorf("level 2 = (%v, %v, %v), want no sets", sets, done, err)
	}
}

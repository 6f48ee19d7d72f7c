package mine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// remine is the oracle: the lattice RunAll produces from scratch, flattened.
func remine(tb testing.TB, cfg Config) ([]Counted, Stats) {
	tb.Helper()
	var stats Stats
	cfg.Stats = &stats
	lw, err := New(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	levels, err := lw.RunAll()
	if err != nil {
		tb.Fatal(err)
	}
	return slices.Concat(levels...), stats
}

// advanced is what one Advance did: the lattice, its Stats, and the advance
// span's attributes.
type advanced struct {
	sets  []Counted
	stats Stats
	attrs map[string]any
}

// advanceAndCheck advances prior to cfg's database and threshold and holds
// the result to a re-mine of the same configuration — sets, supports and
// order — and to the accounting contracts: prune sites sum to
// CandidatesPruned, an advance never counts more sets than the re-mine, and
// neither makes a pass of its own.
func advanceAndCheck(tb testing.TB, cfg Config, prior []Counted, priorMinSup, rows int) advanced {
	tb.Helper()
	want, wantStats := remine(tb, cfg)

	var got advanced
	cfg.Stats = &got.stats
	cfg.Label = "S"
	tracer := obs.NewTracer(obs.Options{Name: "advance"})
	prune := obs.NewPruneSet()
	ctx := obs.WithPruning(obs.WithTracer(context.Background(), tracer), prune)
	before := append([]Counted(nil), prior...)
	sets, err := Advance(ctx, cfg, prior, priorMinSup, rows)
	if err != nil {
		tb.Fatal(err)
	}
	got.sets = sets

	if len(sets) != len(want) {
		tb.Fatalf("advanced lattice has %d sets, re-mined %d", len(sets), len(want))
	}
	for i := range want {
		if !sets[i].Set.Equal(want[i].Set) || sets[i].Support != want[i].Support {
			tb.Fatalf("set %d: advanced %v/%d, re-mined %v/%d", i, sets[i].Set, sets[i].Support, want[i].Set, want[i].Support)
		}
	}
	for i := range before {
		if !before[i].Set.Equal(prior[i].Set) || before[i].Support != prior[i].Support {
			tb.Fatalf("Advance modified its prior at %d", i)
		}
	}
	if total := prune.Total(); total != got.stats.CandidatesPruned {
		tb.Errorf("prune sites sum to %d, CandidatesPruned = %d", total, got.stats.CandidatesPruned)
	}
	if got.stats.FrequentSets != int64(len(sets)) {
		tb.Errorf("FrequentSets = %d, lattice has %d", got.stats.FrequentSets, len(sets))
	}
	if got.stats.CandidatesCounted > wantStats.CandidatesCounted || got.stats.DBScans != 0 || wantStats.DBScans != 0 {
		tb.Errorf("advance counted %d sets in %d passes, the re-mine %d in %d; want no more sets and no pass",
			got.stats.CandidatesCounted, got.stats.DBScans, wantStats.CandidatesCounted, wantStats.DBScans)
	}
	sp := tracer.Report().Find("S:advance")
	if sp == nil {
		tb.Fatal("no S:advance span")
	}
	if len(sp.Children) == 0 || sp.Children[0].Name != "S:level-1" {
		tb.Error("S:advance has no level spans under it")
	}
	got.attrs = sp.Attrs
	return got
}

// support is the benchmark's fractional threshold: 1 % of the rows, at least 1.
func support(rows int) int { return max(rows/100, 1) }

// TestAdvanceMatchesRemine is the differential oracle for Advance: at every
// point the advanced lattice must equal RunAll on the whole database in
// content, support and order.
func TestAdvanceMatchesRemine(t *testing.T) {
	type fixture struct {
		name string
		txs  []itemset.Set
		rows int         // the prior's rows
		half itemset.Set // a non-nil Domain
	}
	var fixtures []fixture
	for _, f := range []struct {
		name string
		rows int
	}{{"dense", 2000}, {"wide", 5000}} {
		cold := newColdFixture(t, f.name)
		var half itemset.Set
		for it, price := range cold.prices {
			if price >= 500 {
				half = append(half, itemset.Item(it))
			}
		}
		fixtures = append(fixtures, fixture{f.name, cold.db.Transactions(), f.rows, half})
	}

	t.Run("sweep", func(t *testing.T) {
		for _, f := range fixtures {
			for _, domain := range []itemset.Set{nil, f.half} {
				minSup := support(f.rows)
				prior, _ := remine(t, Config{DB: txdb.New(f.txs[:f.rows]), MinSupport: minSup, Domain: domain})
				for _, delta := range []int{0, 1, 10, 500, f.rows} {
					db := txdb.New(f.txs[:f.rows+delta])
					for _, to := range []int{minSup, support(db.Len())} { // absolute, fractional
						for _, workers := range []int{1, 4} {
							name := fmt.Sprintf("%s/domain=%v/delta=%d/minsup=%d/w%d", f.name, domain != nil, delta, to, workers)
							t.Run(name, func(t *testing.T) {
								advanceAndCheck(t, Config{DB: db, MinSupport: to, Domain: domain, Workers: workers}, prior, minSup, f.rows)
							})
						}
					}
				}
			}
		}
	})

	// Each generation advances the lattice the previous one advanced, so an
	// error would compound; under the threshold that moves with the row
	// count the chain both promotes and demotes.
	t.Run("chain", func(t *testing.T) {
		const generations, batch = 50, 10
		for i, f := range fixtures {
			fractional := i == 0 // dense under a moving threshold, wide under a fixed one
			t.Run(fmt.Sprintf("%s/fractional=%v", f.name, fractional), func(t *testing.T) {
				rows, minSup := f.rows, support(f.rows)
				sets, _ := remine(t, Config{DB: txdb.New(f.txs[:rows]), MinSupport: minSup})
				var promoted, demoted, carried int
				for g := 0; g < generations; g++ {
					n, to := rows+batch, minSup
					if fractional {
						to = support(n)
					}
					got := advanceAndCheck(t, Config{DB: txdb.New(f.txs[:n]), MinSupport: to}, sets, minSup, rows)
					sets, rows, minSup = got.sets, n, to
					promoted += got.attrs["promoted"].(int)
					demoted += got.attrs["demoted"].(int)
					carried += got.attrs["carried"].(int)
				}
				if promoted == 0 || carried == 0 || (fractional && demoted == 0) {
					t.Errorf("chain exercised too little: promoted %d, demoted %d, carried %d", promoted, demoted, carried)
				}
			})
		}
	})

	tx := func(items ...itemset.Item) itemset.Set { return itemset.New(items...) }

	// Item 3 is infrequent over the old rows and frequent with Δ: every set
	// holding it, up to {0,1,2,3}, is new at every level.
	t.Run("newly frequent item", func(t *testing.T) {
		txs := []itemset.Set{
			tx(0, 1, 2), tx(0, 1, 2), tx(0, 1, 2), tx(0, 1, 2, 3), tx(4),
			tx(0, 1, 2, 3), // Δ
		}
		prior, _ := remine(t, Config{DB: txdb.New(txs[:5]), MinSupport: 2})
		got := advanceAndCheck(t, Config{DB: txdb.New(txs), MinSupport: 2}, prior, 2, 5)
		if n := len(got.sets); n != 15 {
			t.Errorf("lattice has %d sets, want the 15 subsets of {0,1,2,3}", n)
		}
	})

	// The threshold steps from 2 to 3. {4,5,6} (support 2, no Δ row holds
	// it) is demoted; {0,1,7} is outside the prior (support 1) and occurs in
	// Δ once, one short of the 3−2+1 occurrences that could make it
	// frequent, so it is dropped without a pass over the old rows.
	t.Run("threshold step demotes", func(t *testing.T) {
		txs := []itemset.Set{
			tx(0, 1), tx(0, 1), tx(0, 7), tx(0, 7), tx(1, 7), tx(1, 7), tx(0, 1, 7),
			tx(4, 5, 6), tx(4, 5, 6), tx(9),
			tx(0, 1, 7), // Δ
		}
		prior, _ := remine(t, Config{DB: txdb.New(txs[:10]), MinSupport: 2})
		got := advanceAndCheck(t, Config{DB: txdb.New(txs), MinSupport: 3}, prior, 2, 10)
		if got.attrs["demoted"] != 1 || got.attrs["recounted"] != 0 {
			t.Errorf("advance span attrs = %v, want demoted 1, recounted 0", got.attrs)
		}
	})

	// The same step, but {2,3,8} (support 1 over the old rows) occurs in Δ
	// twice: it is counted on the generation's columns and promoted at
	// support 3.
	t.Run("threshold step promotes", func(t *testing.T) {
		txs := []itemset.Set{
			tx(2, 3), tx(2, 3), tx(2, 8), tx(2, 8), tx(3, 8), tx(3, 8), tx(2, 3, 8), tx(9),
			tx(2, 3, 8), tx(2, 3, 8), // Δ
		}
		prior, _ := remine(t, Config{DB: txdb.New(txs[:8]), MinSupport: 2})
		got := advanceAndCheck(t, Config{DB: txdb.New(txs), MinSupport: 3}, prior, 2, 8)
		last := got.sets[len(got.sets)-1]
		if !last.Set.Equal(tx(2, 3, 8)) || last.Support != 3 {
			t.Errorf("last set = %v/%d, want {2,3,8}/3", last.Set, last.Support)
		}
		if got.attrs["promoted"] != 1 || got.attrs["recounted"] != 1 {
			t.Errorf("attrs = %v; want promoted 1, recounted 1", got.attrs)
		}
	})

	t.Run("rejects what it cannot carry", func(t *testing.T) {
		db := txdb.New([]itemset.Set{tx(0, 1), tx(0, 1)})
		ctx := context.Background()
		for name, call := range map[string]func() error{
			"lower threshold": func() error { _, err := Advance(ctx, Config{DB: db, MinSupport: 1}, nil, 2, 1); return err },
			"more rows":       func() error { _, err := Advance(ctx, Config{DB: db, MinSupport: 1}, nil, 1, 3); return err },
			"constrained": func() error {
				_, err := Advance(ctx, Config{DB: db, MinSupport: 1, MaxLevel: 2}, nil, 1, 1)
				return err
			},
		} {
			if call() == nil {
				t.Errorf("%s: Advance accepted it", name)
			}
		}
	})
}

// FuzzAdvance holds Advance to a re-mine on small random databases: each
// byte of rows is one transaction over eight items, cut twice, so the
// second advance starts from a lattice the first one produced.
func FuzzAdvance(f *testing.F) {
	f.Add([]byte{0x07, 0x07, 0x0f, 0x13, 0x07, 0x0f}, uint8(3), uint8(1), uint8(1), uint8(0x10), uint8(0))
	f.Add([]byte{0xff, 0xfe, 0x7f, 0xff, 0x3c, 0xc3, 0xff, 0x0f, 0xf0}, uint8(4), uint8(2), uint8(2), uint8(0x21), uint8(0x7e))
	f.Add([]byte{0x01, 0x02, 0x03}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0x03))
	f.Fuzz(func(t *testing.T, rows []byte, cut1, cut2, minSup, steps, mask uint8) {
		if len(rows) > 48 {
			rows = rows[:48]
		}
		txs := make([]itemset.Set, len(rows))
		for i, b := range rows {
			txs[i] = bitItems(b)
		}
		var domain itemset.Set
		if mask != 0 {
			domain = bitItems(mask)
		}
		r1 := int(cut1) % (len(txs) + 1)
		r2 := r1 + int(cut2)%(len(txs)-r1+1)
		t1 := 1 + int(minSup)%4
		t2 := t1 + int(steps&0x0f)%3
		t3 := t2 + int(steps>>4)%3

		prior, _ := remine(t, Config{DB: txdb.New(txs[:r1]), MinSupport: t1, Domain: domain})
		mid := advanceAndCheck(t, Config{DB: txdb.New(txs[:r2]), MinSupport: t2, Domain: domain}, prior, t1, r1)
		advanceAndCheck(t, Config{DB: txdb.New(txs), MinSupport: t3, Domain: domain, Workers: 2}, mid.sets, t2, r2)
	})
}

// bitItems is the itemset of b's set bits.
func bitItems(b uint8) itemset.Set {
	var s itemset.Set
	for it := 0; it < 8; it++ {
		if b&(1<<it) != 0 {
			s = append(s, itemset.Item(it))
		}
	}
	return s
}

package mine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// referenceStepTwo is level 2 the way the generic level step does every
// later level, spelled out for k = 2: enumerate the pairs as candidate
// slices, filter them, count each as the popcount of the AND of its two bit
// columns (the columns levels >= 3 count on, built by their pass) and
// threshold one by one. It is the oracle stepTwo's triangle must match in
// answers, join state, filter calls, every Stats field and every charge. The
// columns are dropped after the level, so level 3 makes its own pass as it
// does after the triangle.
func (l *Levelwise) referenceStepTwo() ([]Counted, error) {
	if err := l.guard.Check("level 2: candidate generation"); err != nil {
		return nil, err
	}
	var cands [][]int32
	for i, a := range l.l1Ranks {
		if l.nRequired > 0 && int(a) >= l.nRequired {
			break
		}
		if err := l.guard.Check("level 2: candidate generation"); err != nil {
			return nil, err
		}
		for _, b := range l.l1Ranks[i+1:] {
			cands = append(cands, []int32{a, b})
		}
	}
	if l.cfg.CandidateFilter != nil {
		kept := cands[:0]
		for i, c := range cands {
			if i%genCheckBatch == 0 {
				if err := l.guard.Check("level 2: candidate filtering"); err != nil {
					return nil, err
				}
			}
			if l.cfg.CandidateFilter(2, l.toOrig(c)) {
				kept = append(kept, c)
			} else {
				l.stats.CandidatesPruned++
			}
		}
		cands = kept
	}
	l.level = 2
	if len(cands) == 0 {
		l.resetLevel(0)
		return nil, nil
	}
	l.stats.CandidatesCounted += int64(len(cands))
	if err := l.buildColumns(cands, 2, l.cfg.DB.Transactions()); err != nil {
		return nil, err
	}
	counts := make([]int, len(cands))
	for _, pg := range l.cols.pages {
		for i, c := range cands {
			a, b := int(l.cols.colOf[c[0]])*l.cols.stride, int(l.cols.colOf[c[1]])*l.cols.stride
			for x := 0; x < l.cols.stride; x++ {
				counts[i] += bits.OnesCount64(pg.bits[a+x] & pg.bits[b+x])
			}
		}
	}
	l.cols = nil
	var out []Counted
	l.resetLevel(len(cands))
	for i, c := range cands {
		if counts[i] < l.cfg.MinSupport {
			l.stats.CandidatesPruned++
			l.prune.Charge(l.freqSite, 1)
			continue
		}
		out = l.addFrequent(c, nil, counts[i], out)
	}
	return out, nil
}

// triangleCase is one point of the level-2 configuration space.
type triangleCase struct {
	required string // "none", "class", "disjoint" (Required ∩ L1 = ∅)
	filter   string // "none", "sum", "reject-all"
	report   bool   // a charging ReportValid as well
	preset   bool
	workers  int
	maxLevel int
}

func (c triangleCase) String() string {
	return fmt.Sprintf("required=%s/filter=%s/report=%v/preset=%v/workers=%d/maxlevel=%d",
		c.required, c.filter, c.report, c.preset, c.workers, c.maxLevel)
}

// triangleRun is everything one run exposes that the other must reproduce.
type triangleRun struct {
	levels   [][]Counted // valid sets per Step, from level 2 on
	frequent [][]Counted // LastFrequent after each of those Steps
	sets     [][]int32   // join state after level 2
	sup      []int
	keys     map[string]int
	// events is the interleaved sequence of checkpoints (by label) and
	// CandidateFilter / ReportValid calls (by argument).
	events []string
	stats  Stats
	sites  obs.Counters
}

// config is the miner configuration of c over db: its closures record their
// calls, and the checkpoints they fall between, in run.events and charge
// prune.
func (c triangleCase) config(t *testing.T, db *txdb.DB, minSup int, run *triangleRun, prune *obs.PruneSet) Config {
	t.Helper()
	cfg := Config{
		DB: db, MinSupport: minSup, Workers: c.workers, MaxLevel: c.maxLevel,
		Stats: &Stats{},
		Budget: &Budget{Checkpoint: func(where string) error {
			run.events = append(run.events, "checkpoint "+where)
			return nil
		}},
	}
	sup := db.ItemSupports()
	var rare, common itemset.Set
	for it, n := range sup {
		switch {
		case n >= minSup:
			common = append(common, itemset.Item(it))
		case n > 0:
			rare = append(rare, itemset.Item(it))
		}
	}
	switch c.required {
	case "class":
		// Every third frequent item plus the rare ones: the class cuts
		// through L1, so rank order and item order disagree.
		cfg.Required = rare.Clone()
		for i := 0; i < len(common); i += 3 {
			cfg.Required = append(cfg.Required, common[i])
		}
		cfg.Required = itemset.New(cfg.Required...)
	case "disjoint":
		cfg.Required = rare
		if rare.Empty() {
			cfg.Required = itemset.New(itemset.Item(len(sup) + 1))
		}
	}
	switch c.filter {
	case "sum":
		// Anti-monotone: item ids are non-negative, so a superset's sum is
		// no smaller.
		bound := len(sup) + len(sup)/2
		cfg.CandidateFilter = func(level int, s itemset.Set) bool {
			run.events = append(run.events, fmt.Sprintf("filter %d %s", level, s.Key()))
			sum := 0
			for _, it := range s {
				sum += int(it)
			}
			if sum > bound {
				prune.Charge("test:candidate-filter", 1)
				return false
			}
			return true
		}
	case "reject-all":
		cfg.CandidateFilter = func(level int, s itemset.Set) bool {
			run.events = append(run.events, fmt.Sprintf("filter %d %s", level, s.Key()))
			if level >= 2 {
				prune.Charge("test:candidate-filter", 1)
				return false
			}
			return true
		}
	}
	if c.report {
		cfg.ReportValid = func(s itemset.Set) bool {
			run.events = append(run.events, "report "+s.Key())
			if s[0]%2 == 1 {
				prune.Charge("test:report-filter", 1)
				return false
			}
			return true
		}
	}
	if c.preset {
		first, err := New(context.Background(), Config{DB: db, MinSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := first.Step(); err != nil {
			t.Fatal(err)
		}
		cfg.PresetL1 = first.FrequentItemCounts()
	}
	return cfg
}

// runTriangleCase mines db under c with level 2 taken by step (the triangle
// or the reference) and every other level by Step.
func runTriangleCase(t *testing.T, db *txdb.DB, minSup int, c triangleCase,
	step func(*Levelwise) ([]Counted, error)) triangleRun {
	t.Helper()
	var run triangleRun
	prune := obs.NewPruneSet()
	cfg := c.config(t, db, minSup, &run, prune)
	lw, err := New(obs.WithPruning(context.Background(), prune), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.Step(); err != nil {
		t.Fatal(err)
	}
	if !lw.Done() {
		out, err := step(lw)
		if err != nil {
			t.Fatal(err)
		}
		lw.finishLevelCheck()
		run.levels = append(run.levels, out)
		run.frequent = append(run.frequent, lw.LastFrequent())
		run.sets, run.sup, run.keys = lw.prevSets, lw.prevSup, lw.prevKeys
	}
	for !lw.Done() {
		out, _, err := lw.Step()
		if err != nil {
			t.Fatal(err)
		}
		run.levels = append(run.levels, out)
		run.frequent = append(run.frequent, lw.LastFrequent())
	}
	run.stats = *cfg.Stats
	run.sites = prune.Snapshot()
	if got := prune.Total(); got != run.stats.CandidatesPruned {
		t.Errorf("%v: prune sites sum to %d, CandidatesPruned %d", c, got, run.stats.CandidatesPruned)
	}
	return run
}

// TestTriangleMatchesColumnsLevel2 is the property: over random databases and
// the whole level-2 configuration space, the triangle and the reference
// (pairs counted on the bit columns levels >= 3 use) agree on frequent sets,
// supports and order, on the join state level 3 reads, on the filter's call
// sequence and where the checkpoints fall in it, on every Stats field
// including Checkpoints, and on the prune-site snapshot — and so do the
// levels mined on top of either.
func TestTriangleMatchesColumnsLevel2(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, f := range triangleFixtures(r) {
		for _, required := range []string{"none", "class", "disjoint"} {
			for _, filter := range []string{"none", "sum", "reject-all"} {
				for _, preset := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						for _, maxLevel := range []int{0, 2} {
							c := triangleCase{required, filter, r.Intn(2) == 0, preset, workers, maxLevel}
							got := runTriangleCase(t, f.db, f.minSup, c, (*Levelwise).stepTwo)
							want := runTriangleCase(t, f.db, f.minSup, c, (*Levelwise).referenceStepTwo)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%v: triangle and reference differ\ntriangle:  %+v\nreference: %+v",
									f.name, c, got, want)
							}
							if f.name == "wide" && required == "none" && filter != "none" {
								if n := countEvent(got.events, "checkpoint level 2: candidate filtering"); n < 2 {
									t.Errorf("%s/%v: %d filtering checkpoints; the fixture no longer spans two batches", f.name, c, n)
								}
							}
							if f.name == "long" && required == "none" && filter == "none" {
								if n := countEvent(got.events, "checkpoint level 2: counting"); n < 2 {
									t.Errorf("%s/%v: %d counting checkpoints; the fixture no longer spans two batches", f.name, c, n)
								}
							}
						}
					}
				}
			}
		}
	}
}

// triangleFixture is one database of the configuration-space properties.
type triangleFixture struct {
	name   string
	db     *txdb.DB
	minSup int
}

func triangleFixtures(r *rand.Rand) []triangleFixture {
	fixtures := []triangleFixture{
		// Wide enough for a second "candidate filtering" checkpoint
		// (C(150, 2) > genCheckBatch) …
		{"wide", randomDB(r, 300, 150, 24), 5},
		// … and long enough for several counting checkpoints and a real
		// Workers split.
		{"long", randomDB(r, 2*checkBatch+77, 14, 7), 40},
		{"empty", txdb.New(nil), 1},
		{"tiny", randomDB(r, 3, 5, 4), 1}, // fewer than 4*Workers rows: serial fallback
	}
	for i := 0; i < 12; i++ {
		numItems := 4 + r.Intn(20)
		db := randomDB(r, 20+r.Intn(200), numItems, 2+r.Intn(8))
		// A threshold around the median item support splits the items into
		// frequent and rare ones.
		sup := append([]int(nil), db.ItemSupports()...)
		minSup := 1
		if len(sup) > 0 {
			minSup = max(1, sup[r.Intn(len(sup))])
		}
		fixtures = append(fixtures, triangleFixture{fmt.Sprintf("random-%d", i), db, minSup})
	}
	return fixtures
}

func countEvent(events []string, event string) int {
	n := 0
	for _, e := range events {
		if e == event {
			n++
		}
	}
	return n
}

// TestLevel2BudgetTrip: a candidate budget just below the level-2 cell count
// trips inside level 2 — the cells are charged before they are counted — and
// the error carries the charged count.
func TestLevel2BudgetTrip(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	db := randomDB(r, 3*checkBatch, 16, 8)
	const minSup = 30
	full := &Stats{}
	lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, MaxLevel: 2, Stats: full})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lw.RunAll(); err != nil {
		t.Fatal(err)
	}
	n1 := int64(len(lw.FrequentItems()))
	cells := n1 * (n1 - 1) / 2
	if items := int64(db.ActiveItems().Len()); full.CandidatesCounted != items+cells {
		t.Fatalf("CandidatesCounted = %d, want %d items + %d cells", full.CandidatesCounted, items, cells)
	}
	for _, workers := range []int{1, 4} {
		stats := &Stats{}
		lw, err := New(context.Background(), Config{
			DB: db, MinSupport: minSup, Workers: workers, Stats: stats,
			Budget: &Budget{MaxCandidates: full.CandidatesCounted - 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = lw.RunAll()
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *BudgetError", workers, err)
		}
		if be.Resource != ResourceCandidates || be.Where != "level 2: counting" {
			t.Errorf("workers=%d: tripped on %s at %q, want candidates at \"level 2: counting\"",
				workers, be.Resource, be.Where)
		}
		if be.Stats.CandidatesCounted != full.CandidatesCounted || be.Used != full.CandidatesCounted {
			t.Errorf("workers=%d: partial CandidatesCounted = %d, Used = %d, want the charged %d",
				workers, be.Stats.CandidatesCounted, be.Used, full.CandidatesCounted)
		}
		if be.Stats.DBScans != full.DBScans-1 {
			t.Errorf("workers=%d: DBScans = %d at the trip, want %d (level-2 pass not completed)",
				workers, be.Stats.DBScans, full.DBScans-1)
		}
	}
}

// TestLevel2CancelUnwinds: a cancellation delivered from the checkpoint hook
// at the first, middle and last level-2 checkpoint — serial and with a
// Workers split — surfaces as a wrapped context.Canceled, latches the miner,
// and strands no counting goroutine.
func TestLevel2CancelUnwinds(t *testing.T) {
	r := rand.New(rand.NewSource(182))
	db := randomDB(r, 3*checkBatch, 16, 8)
	filter := func(int, itemset.Set) bool { return true } // adds the filtering checkpoints
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		cfg := Config{DB: db, MinSupport: 30, Workers: workers, CandidateFilter: filter}
		at := passCheckpoints(t, cfg, "level 2:")
		if len(at) < 3 {
			t.Fatalf("only %d level-2 checkpoints; first/middle/last are not distinct", len(at))
		}
		for _, n := range []int64{at[0], at[len(at)/2], at[len(at)-1]} {
			cancelUnwinds(t, cfg, n, "level 2:")
		}
	}
	settleGoroutines(t, before)
}

package mine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// referenceStepTwo is level 2 the way the generic level step does every
// later level, spelled out for k = 2: enumerate the pairs as candidate
// slices, filter them, count each as the popcount of the AND of two bit
// columns built here over every transaction, and threshold one by one,
// passing the checkpoints stepTwo passes where it passes them. It is the
// oracle stepTwo's reads of the pair-support table must match in answers,
// join state, filter and report calls, every Stats field and every charge,
// and it shares no code with the table.
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
	kept := make([]bool, len(cands))
	nKept := 0
	filter := l.referenceFilter(2)
	for i, c := range cands {
		if filter != nil {
			if i%genCheckBatch == 0 {
				if err := l.guard.Check("level 2: candidate filtering"); err != nil {
					return nil, err
				}
			}
			if !filter(l.toOrig(c)) {
				l.stats.CandidatesPruned++
				continue
			}
		}
		kept[i] = true
		nKept++
	}
	l.level = 2
	if nKept == 0 {
		l.resetLevel(0)
		return nil, nil
	}
	l.stats.CandidatesCounted += int64(nKept)
	l.stats.LatticeBytes += 4 * int64(nKept)
	txs := l.cfg.DB.Transactions()
	cols := map[int32][]uint64{}
	for _, r := range l.l1Ranks {
		cols[r] = make([]uint64, (len(txs)+63)/64)
	}
	for tid, t := range txs {
		for _, it := range t {
			if col, ok := cols[l.itemToRank[it]]; ok {
				col[tid/64] |= 1 << (tid % 64)
			}
		}
	}
	var out []Counted
	l.resetLevel(nKept)
	infrequent := 0
	for i, c := range cands {
		if i%genCheckBatch == 0 {
			if err := l.guard.Check("level 2: counting"); err != nil {
				return nil, err
			}
		}
		if !kept[i] {
			continue
		}
		sup := 0
		for x, w := range cols[c[0]] {
			sup += bits.OnesCount64(w & cols[c[1]][x])
		}
		if sup < l.cfg.MinSupport {
			infrequent++
			continue
		}
		out = l.addFrequent(c, nil, sup, out)
	}
	// The infrequent cells are charged once the walk is over, so a run
	// stopped inside it has charged none.
	l.stats.CandidatesPruned += int64(infrequent)
	l.freqSite.Add(int64(infrequent))
	// Later levels count on the generation's item columns, which stepTwo
	// hands them; reading the table here passes no checkpoint.
	tab, err := l.cfg.DB.PairSupports(context.Background(), l.cfg.MinSupport, 1)
	l.pairs = tab
	return out, err
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
	// check condition / ReportValid calls (by argument).
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
		cfg.Checks = filterChecks(func(level int, s itemset.Set) bool {
			run.events = append(run.events, fmt.Sprintf("filter %d %s", level, s.Key()))
			sum := 0
			for _, it := range s {
				sum += int(it)
			}
			return sum <= bound
		}, prune.Site("test:candidate-filter"))
	case "reject-all":
		cfg.Checks = filterChecks(func(level int, s itemset.Set) bool {
			run.events = append(run.events, fmt.Sprintf("filter %d %s", level, s.Key()))
			return level < 2
		}, prune.Site("test:candidate-filter"))
	}
	if c.report {
		cfg.ReportValid = func(s itemset.Set) bool {
			run.events = append(run.events, "report "+s.Key())
			if s[0]%2 == 1 {
				prune.Site("test:report-filter").Add(1)
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
		// An entry the database does not support at the threshold: the
		// pair table does not cover the item, so its pairs read 0.
		if !rare.Empty() {
			cfg.PresetL1 = append(cfg.PresetL1, Counted{Set: itemset.New(rare[0]), Support: minSup})
		}
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
		run.sets, run.sup, run.keys = lw.prevSets, lw.prevSup, lw.keys()
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
// the whole level-2 configuration space, level 2 read from the pair-support
// table and the reference (pairs counted on bit columns) agree on frequent
// sets, supports and order, on the join state level 3 reads, on the filter
// and report call sequence and where the checkpoints fall in it, on every
// Stats field including Checkpoints, and on the prune-site snapshot — and so
// do the levels mined on top of either. The table side runs four times: on a
// fresh copy of the database (the run builds the table), on the shared
// database (after the first case the table is found), on a copy holding a
// table at a lower threshold (which serves), and on a copy holding one at a
// higher threshold (which must not serve: the run builds its own). A run
// that replaces a table leaves what its readers see unchanged.
func TestTriangleMatchesColumnsLevel2(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	ctx := context.Background()
	for _, f := range triangleFixtures(r) {
		lower := txdb.New(f.db.Transactions())
		if _, err := lower.PairSupports(ctx, f.minSup-1, 1); err != nil {
			t.Fatal(err)
		}
		for _, required := range []string{"none", "class", "disjoint"} {
			for _, filter := range []string{"none", "sum", "reject-all"} {
				for _, preset := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						for _, maxLevel := range []int{0, 2} {
							c := triangleCase{required, filter, r.Intn(2) == 0, preset, workers, maxLevel}
							want := runTriangleCase(t, f.db, f.minSup, c, (*Levelwise).referenceStepTwo)
							higher := txdb.New(f.db.Transactions())
							old, err := higher.PairSupports(ctx, f.minSup+1, 1)
							if err != nil {
								t.Fatal(err)
							}
							oldCells := tableCells(old, higher.NumItems())
							for _, db := range []struct {
								name string
								db   *txdb.DB
							}{{"built", txdb.New(f.db.Transactions())}, {"found", f.db}, {"lower", lower}, {"higher", higher}} {
								got := runTriangleCase(t, db.db, f.minSup, c, (*Levelwise).stepTwo)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s/%v/%s: table and reference differ\ntable:     %+v\nreference: %+v",
										f.name, c, db.name, got, want)
								}
							}
							if old.MinSupport() != f.minSup+1 || !reflect.DeepEqual(tableCells(old, higher.NumItems()), oldCells) {
								t.Fatalf("%s/%v: replacing a table changed what its readers see", f.name, c)
							}
							if f.name == "wide" && required == "none" && filter != "none" {
								if n := countEvent(want.events, "checkpoint level 2: candidate filtering"); n < 2 {
									t.Errorf("%s/%v: %d filtering checkpoints; the fixture no longer spans two batches", f.name, c, n)
								}
							}
							if f.name == "wide" && required == "none" && filter == "none" {
								if n := countEvent(want.events, "checkpoint level 2: counting"); n < 2 {
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

// tableCells copies every row of a pair-support table.
func tableCells(p *txdb.PairSupports, numItems int) [][]int32 {
	var rows [][]int32
	for it := 0; it < numItems; it++ {
		if a := p.Position(itemset.Item(it)); a >= 0 {
			rows = append(rows, slices.Clone(p.Row(a)))
		}
	}
	return rows
}

// buildBatch is txdb's: how many rows the pair-support build reads between
// polls of its context. Fixtures a few of them long span several polls.
const buildBatch = 2048

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
		{"long", randomDB(r, 2*buildBatch+77, 14, 7), 40},
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

// TestLevel2BudgetTrip: a candidate budget just below the level-2 cell count,
// or a lattice-bytes budget just below their 4-byte charge, trips inside
// level 2 — the cells are charged before they are read — and the error
// carries the charged count and partial Stats that do not depend on Workers:
// level 2 makes no pass of its own. On a fresh database the trip comes before
// the pair-support table is built, so the database records no pass; so does
// a lattice-bytes budget below the size of the table at the run's threshold,
// whether or not the table exists.
func TestLevel2BudgetTrip(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	db := randomDB(r, 3*buildBatch, 16, 8)
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
	if full.DBScans != 0 {
		t.Fatalf("DBScans = %d for levels 1 and 2, want 0", full.DBScans)
	}
	// The level-2 charge precedes the level's frequent sets.
	charged := full.LatticeBytes - setBytes(2)*(full.FrequentSets-n1)
	for _, tc := range []struct {
		resource string
		budget   func() *Budget
	}{
		{ResourceCandidates, func() *Budget { return &Budget{MaxCandidates: full.CandidatesCounted - 1} }},
		{ResourceLatticeBytes, func() *Budget { return &Budget{MaxLatticeBytes: charged - 1} }},
	} {
		var serial Stats
		for _, workers := range []int{1, 4} {
			for _, fresh := range []bool{false, true} {
				run := db
				if fresh {
					run = txdb.New(db.Transactions())
				}
				lw, err := New(context.Background(), Config{DB: run, MinSupport: minSup, Workers: workers, Budget: tc.budget()})
				if err != nil {
					t.Fatal(err)
				}
				_, err = lw.RunAll()
				var be *BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("workers=%d fresh=%v: err = %v, want *BudgetError", workers, fresh, err)
				}
				if be.Resource != tc.resource || be.Where != "level 2: counting" {
					t.Errorf("workers=%d fresh=%v: tripped on %s at %q, want %s at \"level 2: counting\"",
						workers, fresh, be.Resource, be.Where, tc.resource)
				}
				if be.Stats.CandidatesCounted != full.CandidatesCounted || be.Stats.LatticeBytes != charged {
					t.Errorf("workers=%d fresh=%v: partial CandidatesCounted = %d, LatticeBytes = %d, want the charged %d and %d",
						workers, fresh, be.Stats.CandidatesCounted, be.Stats.LatticeBytes, full.CandidatesCounted, charged)
				}
				if want := map[string]int64{ResourceCandidates: full.CandidatesCounted, ResourceLatticeBytes: charged}[tc.resource]; be.Used != want {
					t.Errorf("workers=%d fresh=%v: Used = %d, want the charged %d", workers, fresh, be.Used, want)
				}
				if workers == 1 && !fresh {
					serial = be.Stats
				} else if be.Stats != serial {
					t.Errorf("workers=%d fresh=%v: partial Stats %+v, serially %+v", workers, fresh, be.Stats, serial)
				}
				if fresh && run.Scans() != 0 {
					t.Errorf("workers=%d: the tripped run left %d passes on a fresh database, want 0", workers, run.Scans())
				}
			}
		}
	}

	// The table at minSup covers the n1 frequent items, with a pair cell for
	// each two and a column of ⌈rows/64⌉ words for each one; a budget below
	// its size refuses it before anything is charged at level 2 that the
	// other trips do not charge.
	table := 4*cells + 8*n1*int64((db.Len()+63)/64)
	if got := db.PairSupportsBytes(minSup); got != table {
		t.Fatalf("PairSupportsBytes = %d, want 4 bytes for each of the %d cells and 8 per column word", got, cells)
	}
	for _, fresh := range []bool{false, true} {
		run := db
		if fresh {
			run = txdb.New(db.Transactions())
		}
		lw, err := New(context.Background(), Config{DB: run, MinSupport: minSup, Domain: itemset.New(0, 1, 2),
			Budget: &Budget{MaxLatticeBytes: table - 1}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = lw.RunAll()
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != ResourceLatticeBytes || be.Where != "level 2: counting" ||
			be.Used != table || be.Limit != table-1 {
			t.Fatalf("fresh=%v: a domain of 3 items under a budget below the %d-byte table: err = %v", fresh, table, err)
		}
		if fresh && run.Scans() != 0 {
			t.Errorf("the refused run left %d passes on a fresh database, want 0", run.Scans())
		}
	}
}

// TestLevel2StateSizedByRun: a table at a lower threshold than the run's
// holds more frequent pairs than the run has; the level's join state is
// sized by the run's own frequent pairs, not by the table's.
func TestLevel2StateSizedByRun(t *testing.T) {
	r := rand.New(rand.NewSource(184))
	const minSup = 5
	db := randomDB(r, 300, 150, 24)
	tab, err := db.PairSupports(context.Background(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, _, err := lw.Step(); err != nil {
			t.Fatal(err)
		}
	}
	atTable := 0
	for _, row := range tableCells(tab, db.NumItems()) {
		for _, n := range row {
			if n >= 1 {
				atTable++
			}
		}
	}
	n := len(lw.prevSets)
	if atTable < 4*n {
		t.Fatalf("%d pairs reach the table's threshold, %d the run's: the fixture no longer tells them apart", atTable, n)
	}
	if cap(lw.prevSets) > 2*n+16 || cap(lw.prevSup) > 2*n+16 {
		t.Errorf("level 2 holds %d frequent pairs in state sized %d and %d", n, cap(lw.prevSets), cap(lw.prevSup))
	}
}

// TestLevel2CancelUnwinds: a cancellation delivered from the checkpoint hook
// at the first, middle and last level-2 checkpoint — serial and with a
// Workers split — surfaces as a wrapped context.Canceled, latches the miner,
// and strands no counting goroutine. So does one that lands in the middle of
// the pair-support build, which passes no checkpoint: the run returns the
// error at its next level-2 checkpoint, the database publishes no table, and
// the next run builds one and answers as on a fresh database.
func TestLevel2CancelUnwinds(t *testing.T) {
	r := rand.New(rand.NewSource(182))
	db := randomDB(r, 3*buildBatch, 16, 8)
	filter := filterChecks(func(int, itemset.Set) bool { return true }, nil) // adds the filtering checkpoints
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		cfg := Config{DB: db, MinSupport: 30, Workers: workers, Checks: filter}
		at := passCheckpoints(t, cfg, "level 2:")
		if len(at) < 3 {
			t.Fatalf("only %d level-2 checkpoints; first/middle/last are not distinct", len(at))
		}
		for _, n := range []int64{at[0], at[len(at)/2], at[len(at)-1]} {
			cancelUnwinds(t, cfg, n, "level 2:")
		}

		// Every checkpoint polls the context once, the first "level 2:
		// counting" one comes just before the build, and a serial build polls
		// it per buildBatch rows from its first: the build's second poll is
		// the checkpoints up to that one, plus two. A split build polls from
		// every worker, so the cancellation lands in one of them.
		counting := passCheckpoints(t, cfg, "level 2: counting")[0]
		ctx := &cancelAtPoll{Context: context.Background(), at: counting + 2}
		cfg.DB = txdb.New(db.Transactions())
		lw, err := New(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lw.RunAll(); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "level 2: counting") {
			t.Fatalf("workers=%d: cancelled build: err = %v, want context.Canceled at \"level 2: counting\"", workers, err)
		}
		if n := ctx.polls.Load(); workers == 1 && n != counting+3 || n < counting+3 {
			t.Fatalf("workers=%d: %d polls, want the build's second one and the checkpoint after it (%d)", workers, n, counting+3)
		}
		want, wantStats := remine(t, Config{DB: txdb.New(db.Transactions()), MinSupport: 30, Workers: workers, Checks: filter})
		got, gotStats := remine(t, cfg)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("workers=%d: the run after a cancelled build differs from one on a fresh database", workers)
		}
		if n := cfg.DB.Scans(); n != 2+wantStats.DBScans {
			t.Errorf("workers=%d: %d passes, want the cancelled build, the next run's build and its %d", workers, n, wantStats.DBScans)
		}
	}
	settleGoroutines(t, before)
}

// cancelAtPoll is a context that reports cancellation from the at-th call of
// Err on — a cancellation that lands between two polls of a pass that
// passes no checkpoint.
type cancelAtPoll struct {
	context.Context
	at    int64
	polls atomic.Int64
}

func (c *cancelAtPoll) Err() error {
	if c.polls.Add(1) >= c.at {
		return context.Canceled
	}
	return nil
}

// TestConcurrentFirstRuns: runs at two thresholds that start together on a
// fresh database may each build a table; they answer as they do alone on
// their own database, and the database keeps the lower threshold's table.
func TestConcurrentFirstRuns(t *testing.T) {
	r := rand.New(rand.NewSource(183))
	base := randomDB(r, 3*buildBatch, 16, 8)
	sups := []int{30, 45, 30, 45}
	type result struct {
		sets  []Counted
		stats Stats
	}
	want := make([]result, len(sups))
	for i, minSup := range sups {
		want[i].sets, want[i].stats = remine(t, Config{DB: txdb.New(base.Transactions()), MinSupport: minSup, Workers: 1 + i%2})
	}
	for round := 0; round < 4; round++ {
		db := txdb.New(base.Transactions())
		got := make([]result, len(sups))
		errs := make([]error, len(sups))
		var wg sync.WaitGroup
		for i, minSup := range sups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, Workers: 1 + i%2, Stats: &got[i].stats})
				if err != nil {
					errs[i] = err
					return
				}
				levels, err := lw.RunAll()
				got[i].sets, errs[i] = slices.Concat(levels...), err
			}()
		}
		wg.Wait()
		for i := range sups {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d, run %d at support %d: concurrent first runs answer differently from a lone run", round, i, sups[i])
			}
		}
		tab, err := db.PairSupports(context.Background(), 45, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tab.MinSupport() != 30 {
			t.Errorf("round %d: the database holds a table at %d, want the lower threshold 30", round, tab.MinSupport())
		}
	}
}

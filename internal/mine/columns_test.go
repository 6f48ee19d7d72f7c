package mine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// TestNewMakesNoPass: constructing a miner and mining level 1 read no
// transaction — no pass on the database, none in Stats, no checkpoint in New
// — with and without PresetL1 and a check, and the supports level 1
// reports are the database's, preset entries outside the domain (or outside
// every table) ignored. A level-2 run is the control: the database makes one
// pass, once, for its pair table, and the run none.
func TestNewMakesNoPass(t *testing.T) {
	r := rand.New(rand.NewSource(231))
	db := randomDB(r, 2*buildBatch, 14, 6)
	const minSup = 40
	want := map[string]int{}
	for _, it := range db.ActiveItems() {
		if n := db.Support(itemset.New(it)); n >= minSup {
			want[itemset.New(it).Key()] = n
		}
	}
	first, err := New(context.Background(), Config{DB: db, MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := first.Step(); err != nil {
		t.Fatal(err)
	}
	keepAll := func(int, itemset.Set) bool { return true }
	odd := itemset.Set{}
	wantOdd := map[string]int{}
	for _, it := range db.ActiveItems() {
		if n, ok := want[itemset.New(it).Key()]; it%2 == 1 {
			odd = append(odd, it)
			if ok {
				wantOdd[itemset.New(it).Key()] = n
			}
		}
	}
	stray := append(first.FrequentItemCounts(), Counted{Set: itemset.New(1 << 20), Support: minSup})
	for _, tc := range []struct {
		name   string
		domain itemset.Set
		preset []Counted
		filter func(int, itemset.Set) bool
		want   map[string]int
	}{
		{"plain", nil, nil, nil, want},
		{"preset", nil, first.FrequentItemCounts(), nil, want},
		{"filter", nil, nil, keepAll, want},
		{"preset+filter", nil, first.FrequentItemCounts(), keepAll, want},
		{"domain", odd, nil, nil, wantOdd}, // ranks differ from items
		{"preset wider than the domain", odd, stray, nil, wantOdd},
	} {
		want := tc.want
		db.ResetScans()
		stats := &Stats{}
		cfg := Config{DB: db, MinSupport: minSup, MaxLevel: 1, Domain: tc.domain, PresetL1: tc.preset, Stats: stats}
		if tc.filter != nil {
			cfg.Checks = filterChecks(tc.filter, nil)
		}
		lw, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if db.Scans() != 0 || stats.DBScans != 0 || stats.Checkpoints != 0 {
			t.Errorf("%s: after New: DB.Scans() = %d, Stats.DBScans = %d, Checkpoints = %d, want all 0",
				tc.name, db.Scans(), stats.DBScans, stats.Checkpoints)
		}
		levels, err := lw.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		if db.Scans() != 0 || stats.DBScans != 0 {
			t.Errorf("%s: after a MaxLevel = 1 run: DB.Scans() = %d, Stats.DBScans = %d, want 0",
				tc.name, db.Scans(), stats.DBScans)
		}
		if got := flatten(levels); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: level 1 = %v, want %v", tc.name, got, want)
		}
	}

	// Level 2 is no pass of a run's either: the first MaxLevel = 2 run on the
	// database builds the generation's pair table in one recorded pass, and
	// the second finds it.
	db.ResetScans()
	for run, wantScans := range []int64{1, 1} {
		stats := &Stats{}
		lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, MaxLevel: 2, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lw.RunAll(); err != nil {
			t.Fatal(err)
		}
		if db.Scans() != wantScans || stats.DBScans != 0 {
			t.Errorf("MaxLevel = 2 run %d: DB.Scans() = %d, Stats.DBScans = %d, want %d and 0 (the table's build only)",
				run, db.Scans(), stats.DBScans, wantScans)
		}
	}
}

// supportOracle returns txdb.DB.Support over a copy of db, so db's own scan
// count is left alone, memoised: the configurations of one database count
// the same sets again and again.
func supportOracle(db *txdb.DB) func(itemset.Set) int {
	oracle, memo := txdb.New(db.Transactions()), map[string]int{}
	return func(s itemset.Set) int {
		n, ok := memo[s.Key()]
		if !ok {
			n = oracle.Support(s)
			memo[s.Key()] = n
		}
		return n
	}
}

// referenceStep takes the next level, 2 or later, the way Step does except
// for the counting: candidates are generated and filtered as slices in the
// production order, charged, counted one by one with support
// (supportOracle) and thresholded one by one. It passes no counting checkpoint. Its lattice-bytes
// charge is the formula's: 4 bytes per level-2 cell, and (k−2)·⌈rows/64⌉
// words at every level k ≥ 3 with candidates. At those levels it also holds
// countCandidates, the columns' count, to the oracle for every candidate,
// frequent or not, and undoes what that call charged.
func (l *Levelwise) referenceStep(support func(itemset.Set) int) ([]Counted, error) {
	k := l.level + 1
	var cands [][]int32
	if k == 2 {
		for i, a := range l.l1Ranks {
			if l.nRequired > 0 && int(a) >= l.nRequired {
				break
			}
			for _, b := range l.l1Ranks[i+1:] {
				cands = append(cands, []int32{a, b})
			}
		}
	} else {
		var err error
		if cands, err = l.genPrefixJoin(k - 1); err != nil {
			return nil, err
		}
	}
	if filter := l.referenceFilter(k); filter != nil {
		kept := cands[:0]
		for _, c := range cands {
			if filter(l.toOrig(c)) {
				kept = append(kept, c)
			} else {
				l.stats.CandidatesPruned++
			}
		}
		cands = kept
	}
	l.level = k
	if len(cands) == 0 {
		l.resetLevel(0)
		return nil, nil
	}
	l.stats.CandidatesCounted += int64(len(cands))
	sup := make([]int, len(cands))
	for i, c := range cands {
		sup[i] = support(l.toOrig(c))
	}
	if k == 2 {
		l.stats.LatticeBytes += 4 * int64(len(cands))
	} else {
		if l.pairs == nil {
			tab, err := l.cfg.DB.PairSupports(context.Background(), l.cfg.MinSupport, 1)
			if err != nil {
				return nil, err
			}
			l.pairs = tab
		}
		saved := *l.stats
		cols, err := l.countCandidates(cands, k)
		*l.stats = saved
		if err != nil {
			return nil, err
		}
		for i, c := range cands {
			if cols[i] != sup[i] {
				return nil, fmt.Errorf("level %d: %v counts %d on the columns, DB.Support %d", k, l.toOrig(c), cols[i], sup[i])
			}
		}
		l.stats.LatticeBytes += int64(k-2) * int64((l.cfg.DB.Len()+63)/64) * 8
	}
	var out []Counted
	l.resetLevel(len(cands))
	for i, c := range cands {
		if sup[i] < l.cfg.MinSupport {
			l.stats.CandidatesPruned++
			l.freqSite.Add(1)
			continue
		}
		out = l.addFrequent(c, nil, sup[i], out)
	}
	return out, nil
}

// latticeRun is what a whole run exposes, level by level.
type latticeRun struct {
	levels   [][]Counted // valid sets per level, from level 1
	frequent [][]Counted // LastFrequent after each level
	sets     [][][]int32 // join state after each level
	sup      [][]int
	keys     []map[string]int
	calls    []string // check condition / ReportValid calls, in order
	stats    Stats    // Checkpoints zeroed
	sites    obs.Counters
}

// runLattice mines db under c, level 1 by Step and every later level by step.
func runLattice(t *testing.T, db *txdb.DB, minSup int, c triangleCase,
	step func(*Levelwise) ([]Counted, error)) latticeRun {
	t.Helper()
	var events triangleRun
	prune := obs.NewPruneSet()
	cfg := c.config(t, db, minSup, &events, prune)
	lw, err := New(obs.WithPruning(context.Background(), prune), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var run latticeRun
	for first := true; !lw.Done(); first = false {
		var out []Counted
		if first {
			out, _, err = lw.Step()
		} else if out, err = step(lw); err == nil {
			lw.finishLevelCheck()
		}
		if err != nil {
			t.Fatal(err)
		}
		run.levels = append(run.levels, out)
		run.frequent = append(run.frequent, lw.LastFrequent())
		run.sets = append(run.sets, lw.prevSets)
		run.sup = append(run.sup, lw.prevSup)
		run.keys = append(run.keys, lw.keys())
	}
	for _, e := range events.events {
		if !strings.HasPrefix(e, "checkpoint ") {
			run.calls = append(run.calls, e)
		}
	}
	run.stats = *cfg.Stats
	run.stats.Checkpoints = 0
	run.sites = prune.Snapshot()
	if got := prune.Total(); got != run.stats.CandidatesPruned {
		t.Errorf("%v: prune sites sum to %d, CandidatesPruned %d", c, got, run.stats.CandidatesPruned)
	}
	return run
}

// TestColumnCountsMatchSupport is the property behind counting on the
// generation's item columns: over random databases and the whole
// configuration space — Required class, filter, ReportValid, PresetL1 (with
// an item the database does not support at the threshold), Workers, MaxLevel
// — the column count of every level-≥ 3 candidate equals txdb.DB.Support,
// and the miner agrees with a reference that counts every candidate with
// DB.Support: on every level's valid and frequent sets with supports and
// order, on the join state, on the filter and report call sequence, on Stats
// (less Checkpoints, which the reference does not pass) and on the prune-site
// snapshot. No run makes a pass of its own.
func TestColumnCountsMatchSupport(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	deepest := 0
	step := func(l *Levelwise) ([]Counted, error) {
		out, _, err := l.Step()
		return out, err
	}
	for _, f := range triangleFixtures(r) {
		support := supportOracle(f.db)
		reference := func(l *Levelwise) ([]Counted, error) { return l.referenceStep(support) }
		for _, required := range []string{"none", "class", "disjoint"} {
			for _, filter := range []string{"none", "sum", "reject-all"} {
				for _, preset := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						for _, maxLevel := range []int{0, 2, 3} {
							c := triangleCase{required, filter, r.Intn(2) == 0, preset, workers, maxLevel}
							got := runLattice(t, f.db, f.minSup, c, step)
							want := runLattice(t, f.db, f.minSup, c, reference)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%v: column counting and DB.Support differ\ncolumns:   %+v\nreference: %+v",
									f.name, c, got, want)
							}
							if got.stats.DBScans != 0 {
								t.Fatalf("%s/%v: DBScans = %d, want 0", f.name, c, got.stats.DBScans)
							}
							deepest = max(deepest, len(got.levels))
						}
					}
				}
			}
		}
	}
	if deepest < 4 {
		t.Errorf("deepest lattice has %d levels; the fixtures no longer reach level 4", deepest)
	}
}

// passCheckpoints returns the indices (1-based, as faultinject counts) of the
// checkpoints of a full run under cfg whose label starts with prefix.
func passCheckpoints(t *testing.T, cfg Config, prefix string) []int64 {
	t.Helper()
	var at []int64
	var n int64
	cfg.Budget = &Budget{Checkpoint: func(where string) error {
		n++
		if strings.HasPrefix(where, prefix) {
			at = append(at, n)
		}
		return nil
	}}
	lw, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lw.RunAll(); err != nil {
		t.Fatal(err)
	}
	return at
}

// cancelUnwinds runs cfg with a cancellation delivered from the checkpoint
// hook at checkpoint n, which must carry a label starting with prefix, and
// requires a wrapped context.Canceled naming that checkpoint and a latched
// miner.
func cancelUnwinds(t *testing.T, cfg Config, n int64, prefix string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.Cancel(n, cancel)
	cfg.Budget = &Budget{Checkpoint: inj.Checkpoint}
	lw, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = lw.RunAll()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workers=%d cancel at %d: err = %v, want context.Canceled", cfg.Workers, n, err)
	}
	if fired, where := inj.Fired(); !fired || !strings.HasPrefix(where, prefix) {
		t.Fatalf("workers=%d cancel at %d: fired=%v at %q, want a %q checkpoint", cfg.Workers, n, fired, where, prefix)
	}
	if !strings.Contains(err.Error(), prefix) {
		t.Errorf("workers=%d cancel at %d: error %q does not name the %q checkpoint", cfg.Workers, n, err, prefix)
	}
	if sets, done, err2 := lw.Step(); sets != nil || !done || !errors.Is(err2, context.Canceled) {
		t.Errorf("workers=%d cancel at %d: Step after abort = (%v, %v, %v)", cfg.Workers, n, sets, done, err2)
	}
}

// settleGoroutines waits for the goroutine count to return to before:
// cancelled counting workers must have rejoined, not leaked.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// deepDB is long enough for several column-counting checkpoints per level
// and a real Workers split of the pair-support build, and dense enough to be
// mined to level 4.
func deepDB() *txdb.DB {
	return randomDB(rand.New(rand.NewSource(232)), 3*buildBatch, 10, 9)
}

// TestColumnCountCancelUnwinds: a cancellation delivered from the checkpoint
// hook at the first, middle and last counting checkpoint of levels 3 and 4,
// which count on the generation's item columns and make no pass, surfaces as
// a wrapped context.Canceled naming the checkpoint, latches the miner, and
// strands no goroutine. The checkpoints fall at the same places whether the
// pair-support build was split among Workers or not.
func TestColumnCountCancelUnwinds(t *testing.T) {
	db := deepDB()
	before := runtime.NumGoroutine()
	serial := map[string]int{}
	for _, workers := range []int{1, 4} {
		cfg := Config{DB: txdb.New(db.Transactions()), MinSupport: 60, Workers: workers}
		for _, label := range []string{"level 3: counting", "level 4: counting"} {
			// On entry, then per colCheckRows rows' worth of ANDs.
			at := passCheckpoints(t, cfg, label)
			if len(at) < 3 || workers > 1 && len(at) != serial[label] {
				t.Fatalf("%d %q checkpoints with Workers = %d (%d serially)", len(at), label, workers, serial[label])
			}
			serial[label] = len(at)
			for _, n := range []int64{at[0], at[len(at)/2], at[len(at)-1]} {
				cancelUnwinds(t, cfg, n, label)
			}
		}
		if n := cfg.DB.Scans(); n != 1 {
			t.Errorf("workers=%d: %d passes over the database, want the one that built its pair supports and columns", workers, n)
		}
	}
	settleGoroutines(t, before)
}

// TestDeepLevelBudgetTrip: a candidate or lattice-bytes budget that the
// level-3 charges overrun — the candidates, and the prefix ANDs' scratch of
// ⌈rows/64⌉ words, are charged before they are counted — trips at a level-3
// checkpoint, and the error carries the partial Stats: everything charged so
// far, whatever Workers built the columns.
func TestDeepLevelBudgetTrip(t *testing.T) {
	// Few rows: the generation's table, which a lattice-bytes budget below
	// its size refuses at level 2, is smaller than what levels 1 and 2 charge.
	db := randomDB(rand.New(rand.NewSource(234)), 512, 12, 9)
	const minSup = 20
	var after2, after3 Stats
	stats := &Stats{}
	lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	for lw.Level() < 3 {
		if _, _, err := lw.Step(); err != nil {
			t.Fatal(err)
		}
		if lw.Level() == 2 {
			after2 = *stats
		}
	}
	after3 = *stats
	if after3.CandidatesCounted == after2.CandidatesCounted || lw.Done() {
		t.Fatal("the fixture counts nothing at level 3 or stops there")
	}
	if table := db.PairSupportsBytes(minSup); table >= after2.LatticeBytes {
		t.Fatalf("the %d-byte table is no smaller than the %d bytes charged by level 2", table, after2.LatticeBytes)
	}
	scratch := int64((db.Len()+63)/64) * 8
	for _, workers := range []int{1, 4} {
		for _, b := range []*Budget{ // fresh ones: budgets are stateful
			{MaxCandidates: after3.CandidatesCounted - 1},
			{MaxLatticeBytes: after2.LatticeBytes - 1},
			{MaxLatticeBytes: after2.LatticeBytes + scratch - 1},
		} {
			lw, err := New(context.Background(), Config{DB: txdb.New(db.Transactions()), MinSupport: minSup, Workers: workers, Budget: b})
			if err != nil {
				t.Fatal(err)
			}
			_, err = lw.RunAll()
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("workers=%d %+v: err = %v, want *BudgetError", workers, b, err)
			}
			if !strings.HasPrefix(be.Where, "level 3:") {
				t.Errorf("workers=%d: tripped on %s at %q, want a level-3 checkpoint", workers, be.Resource, be.Where)
			}
			if be.Stats.FrequentSets != after2.FrequentSets || be.Stats.DBScans != 0 || be.Stats.Checkpoints == 0 {
				t.Errorf("workers=%d %s: partial stats %+v, want the state after level 2 (%+v) plus the level-3 charge",
					workers, be.Resource, be.Stats, after2)
			}
			if b.MaxCandidates > 0 && (be.Where != "level 3: counting" || be.Stats.CandidatesCounted != after3.CandidatesCounted) {
				t.Errorf("workers=%d: candidates trip at %q with %d charged, want \"level 3: counting\" with %d",
					workers, be.Where, be.Stats.CandidatesCounted, after3.CandidatesCounted)
			}
			if b.MaxLatticeBytes > after2.LatticeBytes && (be.Where != "level 3: counting" || be.Used != after2.LatticeBytes+scratch) {
				t.Errorf("workers=%d: scratch trip at %q with %d bytes, want \"level 3: counting\" with %d",
					workers, be.Where, be.Used, after2.LatticeBytes+scratch)
			}
		}
	}
}

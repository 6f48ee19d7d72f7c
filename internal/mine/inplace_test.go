package mine

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
// — with and without PresetL1 and a CandidateFilter, and the supports level 1
// reports are the database's, preset entries outside the domain (or outside
// every table) ignored. A level-2 run is the control: the database makes one
// pass, once, for its pair table, and the run none.
func TestNewMakesNoPass(t *testing.T) {
	r := rand.New(rand.NewSource(231))
	db := randomDB(r, 2*checkBatch, 14, 6)
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
		lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, MaxLevel: 1, Domain: tc.domain,
			PresetL1: tc.preset, CandidateFilter: tc.filter, Stats: stats})
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

// tidLists is the untrimmed full-domain projection the reference counts
// over, stored by rank: tids[r] lists, ascending, the transactions that
// contain the item of rank r. It is built the plain way — a map from item to
// rank, no table, no class order — and shares nothing with the pass that
// reads transactions through a trimming table.
func (l *Levelwise) tidLists() [][]int32 {
	rankOf := map[itemset.Item]int{}
	for r, it := range l.rankToItem {
		rankOf[it] = r
	}
	tids := make([][]int32, len(l.rankToItem))
	for tid, t := range l.cfg.DB.Transactions() {
		for _, it := range t {
			if r, ok := rankOf[it]; ok {
				tids[r] = append(tids[r], int32(tid))
			}
		}
	}
	return tids
}

// referenceSupport intersects the candidate's tid lists.
func referenceSupport(tids [][]int32, c []int32) int {
	common := tids[c[0]]
	for _, r := range c[1:] {
		var next []int32
		for _, tid := range common {
			if _, ok := slices.BinarySearch(tids[r], tid); ok {
				next = append(next, tid)
			}
		}
		common = next
	}
	return len(common)
}

// referenceStep takes the next level, 2 or later, the way Step does except
// for the counting: candidates are generated and filtered as slices in the
// production order, charged, counted one by one over the full projection
// and thresholded one by one. It passes no counting checkpoint and splits no
// work. Its lattice-bytes charge is the formula's: 4 bytes per level-2 cell,
// and at the first level ≥ 3 with candidates, which builds the columns
// (*columnsCharged records it), ⌈rows/64⌉ words per distinct rank.
func (l *Levelwise) referenceStep(tids [][]int32, columnsCharged *bool) ([]Counted, error) {
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
	if l.cfg.CandidateFilter != nil {
		kept := cands[:0]
		for _, c := range cands {
			if l.cfg.CandidateFilter(k, l.toOrig(c)) {
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
	if k == 2 {
		l.stats.LatticeBytes += 4 * int64(len(cands))
	} else if !*columnsCharged {
		ranks := map[int32]bool{}
		for _, c := range cands {
			for _, r := range c {
				ranks[r] = true
			}
		}
		l.stats.LatticeBytes += int64(len(ranks)) * int64((l.cfg.DB.Len()+63)/64) * 8
		*columnsCharged = true
	}
	var out []Counted
	l.resetLevel(len(cands))
	for _, c := range cands {
		sup := referenceSupport(tids, c)
		if sup < l.cfg.MinSupport {
			l.stats.CandidatesPruned++
			l.prune.Charge(l.freqSite, 1)
			continue
		}
		out = l.addFrequent(c, nil, sup, out)
	}
	return out, nil
}

// checkColumns holds the bit columns the miner counts on to the full
// projection: they were built over every transaction, they kept exactly the
// rows that hold at least k of their ranks — one of them required under a
// Required class — in database order across their pages, and each column has
// the bits of the kept rows that hold its rank and no other, in no page a bit
// past the rows it holds.
func checkColumns(t *testing.T, l *Levelwise, tids [][]int32, k int) {
	t.Helper()
	c := l.cols
	if c.rows != l.cfg.DB.Len() {
		t.Fatalf("columns built over %d rows, the database has %d", c.rows, l.cfg.DB.Len())
	}
	held := make([]int, l.cfg.DB.Len())
	required := make([]bool, l.cfg.DB.Len())
	for r, col := range c.colOf {
		if col < 0 {
			continue
		}
		for _, tid := range tids[r] {
			held[tid]++
			required[tid] = required[tid] || r < l.nRequired
		}
	}
	at := make([]int, len(held)) // bit of a kept row, -1 for a dropped one
	kept := 0
	for tid, n := range held {
		at[tid] = -1
		if n >= k && (l.nRequired == 0 || required[tid]) {
			at[tid] = kept
			kept++
		}
	}
	for r, col := range c.colOf {
		if col < 0 {
			continue
		}
		var want, got []int // the kept rows that hold the rank, by position
		for _, tid := range tids[r] {
			if b := at[tid]; b >= 0 {
				want = append(want, b)
			}
		}
		base := 0
		for _, pg := range c.pages {
			for b, w := range pg.bits[int(col)*c.stride : int(col+1)*c.stride] {
				for ; w != 0; w &= w - 1 {
					got = append(got, base+64*b+bits.TrailingZeros64(w))
				}
			}
			base += pg.rows
		}
		if base != kept || !slices.Equal(got, want) {
			t.Fatalf("column of rank %d holds rows %v of %d kept, want %v of %d", r, got, base, want, kept)
		}
	}
}

// latticeRun is what a whole run exposes, level by level.
type latticeRun struct {
	levels   [][]Counted // valid sets per level, from level 1
	frequent [][]Counted // LastFrequent after each level
	sets     [][][]int32 // join state after each level
	sup      [][]int
	keys     []map[string]int
	calls    []string // CandidateFilter / ReportValid calls, in order
	stats    Stats    // DBScans and Checkpoints zeroed
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
		run.keys = append(run.keys, lw.prevKeys)
	}
	for _, e := range events.events {
		if !strings.HasPrefix(e, "checkpoint ") {
			run.calls = append(run.calls, e)
		}
	}
	run.stats = *cfg.Stats
	run.stats.DBScans, run.stats.Checkpoints = 0, 0
	run.sites = prune.Snapshot()
	if got := prune.Total(); got != run.stats.CandidatesPruned {
		t.Errorf("%v: prune sites sum to %d, CandidatesPruned %d", c, got, run.stats.CandidatesPruned)
	}
	return run
}

// TestTrimmedRowsMatchFullProjection is the property behind counting in
// place: over random databases and the whole configuration space — Required
// class, filter, ReportValid, PresetL1, Workers, MaxLevel — the miner, which
// at every level reads each transaction through a table that trims it to the
// items some candidate holds, agrees with a reference that counts every
// candidate over the untrimmed full-domain projection: on every level's
// valid and frequent sets with supports and order, on the join state, on the
// filter and report call sequence, on Stats (less DBScans and Checkpoints,
// which the reference does not have) and on the prune-site snapshot. The bit
// columns levels >= 3 count on are held to the full projection too, after
// level 3 builds them and after every later level that reuses them.
func TestTrimmedRowsMatchFullProjection(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	deepest := 0
	for _, f := range triangleFixtures(r) {
		var tids [][]int32      // per fixture and Required class, built on first use
		var columnsCharged bool // per run: runLattice starts one at level 1
		reference := func(l *Levelwise) ([]Counted, error) {
			if tids == nil {
				tids = l.tidLists()
			}
			if l.level == 1 {
				columnsCharged = false
			}
			return l.referenceStep(tids, &columnsCharged)
		}
		inPlace := func(l *Levelwise) ([]Counted, error) {
			out, _, err := l.Step()
			if err == nil && l.cols != nil { // a run that is done has released them
				if tids == nil {
					tids = l.tidLists()
				}
				checkColumns(t, l, tids, 3)
			}
			return out, err
		}
		for _, required := range []string{"none", "class", "disjoint"} {
			tids = nil // ranks follow the class
			for _, filter := range []string{"none", "sum", "reject-all"} {
				for _, preset := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						for _, maxLevel := range []int{0, 2, 3} {
							c := triangleCase{required, filter, r.Intn(2) == 0, preset, workers, maxLevel}
							got := runLattice(t, f.db, f.minSup, c, inPlace)
							want := runLattice(t, f.db, f.minSup, c, reference)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%v: in-place counting and the full projection differ\nin place:  %+v\nreference: %+v",
									f.name, c, got, want)
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

// deepDB is long enough for several counting batches and a real Workers
// split, and dense enough to be mined to level 4.
func deepDB() *txdb.DB {
	return randomDB(rand.New(rand.NewSource(232)), 3*checkBatch, 10, 9)
}

// TestInPlacePassCancelUnwinds: a cancellation delivered from the checkpoint
// hook at the first, middle and last checkpoint of the level-3 counting pass
// — a pass over the database's own rows that builds the bit columns — and of
// level 4's counting on those columns, which makes no pass, serial and with a
// Workers split, surfaces as a wrapped context.Canceled naming the
// checkpoint, latches the miner, and strands no counting goroutine.
func TestInPlacePassCancelUnwinds(t *testing.T) {
	db := deepDB()
	before := runtime.NumGoroutine()
	serialCols := 0
	for _, workers := range []int{1, 4} {
		cfg := Config{DB: db, MinSupport: 60, Workers: workers}
		// A serial pass checkpoints per batch; a parallel one exactly twice,
		// the coordinator's check before the workers start and after they
		// join.
		pass := passCheckpoints(t, cfg, "level 3: counting")
		if serial := workers < 2; serial && len(pass) < 3 || !serial && len(pass) != 2 {
			t.Fatalf("%d level-3 pass checkpoints with Workers = %d", len(pass), workers)
		}
		if n := len(passCheckpoints(t, cfg, "level 4: counting")); n != 0 {
			t.Fatalf("%d level-4 pass checkpoints with Workers = %d, want none: level 4 counts on level 3's columns", n, workers)
		}
		// Column counting checkpoints on entry and per batch of words, the
		// same for every Workers value.
		cols := passCheckpoints(t, cfg, "level 4: column counting")
		if len(cols) < 3 || workers > 1 && len(cols) != serialCols {
			t.Fatalf("%d level-4 column counting checkpoints with Workers = %d (%d serially)", len(cols), workers, serialCols)
		}
		serialCols = len(cols)
		for label, at := range map[string][]int64{"level 3: counting": pass, "level 4: column counting": cols} {
			for _, n := range []int64{at[0], at[len(at)/2], at[len(at)-1]} {
				cancelUnwinds(t, cfg, n, label)
			}
		}
	}
	settleGoroutines(t, before)
}

// TestDeepLevelBudgetTrip: a candidate or lattice-bytes budget that the
// level-3 charge overruns trips inside that level's in-place pass — the
// candidates are charged before they are counted — and the error carries the
// partial Stats: everything charged so far, the interrupted pass not counted.
func TestDeepLevelBudgetTrip(t *testing.T) {
	db := deepDB()
	const minSup = 60
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
	for _, workers := range []int{1, 4} {
		for _, b := range []*Budget{ // fresh ones: budgets are stateful
			{MaxCandidates: after3.CandidatesCounted - 1},
			{MaxLatticeBytes: after2.LatticeBytes - 1},
		} {
			lw, err := New(context.Background(), Config{DB: db, MinSupport: minSup, Workers: workers, Budget: b})
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
			if be.Stats.FrequentSets != after2.FrequentSets || be.Stats.DBScans != after2.DBScans || be.Stats.Checkpoints == 0 {
				t.Errorf("workers=%d %s: partial stats %+v, want the state after level 2 (%+v) plus the level-3 charge",
					workers, be.Resource, be.Stats, after2)
			}
			if b.MaxCandidates > 0 && (be.Where != "level 3: counting" || be.Stats.CandidatesCounted != after3.CandidatesCounted) {
				t.Errorf("workers=%d: candidates trip at %q with %d charged, want \"level 3: counting\" with %d",
					workers, be.Where, be.Stats.CandidatesCounted, after3.CandidatesCounted)
			}
		}
	}
}

// TestThroughKeepsClassOrder pins the row reader on its own: whatever the
// table, the result is the wanted values in class order — required class
// first, each class in item order — and nothing else.
func TestThroughKeepsClassOrder(t *testing.T) {
	r := rand.New(rand.NewSource(233))
	var buf []int32
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(40)
		firstOther := int32(r.Intn(n + 1))
		if r.Intn(3) == 0 {
			firstOther = 0
		}
		// A table that is monotone per class: required values count up from
		// 0, the others from firstOther.
		tab := make([]int32, n)
		nextReq, nextOther := int32(0), firstOther
		for it := range tab {
			switch {
			case r.Intn(3) == 0:
				tab[it] = -1
			case nextReq < firstOther && r.Intn(2) == 0:
				tab[it] = nextReq
				nextReq++
			default:
				tab[it] = nextOther
				nextOther++
			}
		}
		var row itemset.Set
		for it := 0; it < n; it++ {
			if r.Intn(2) == 0 {
				row = append(row, itemset.Item(it))
			}
		}
		var want []int32
		for _, it := range row {
			if v := tab[it]; v >= 0 && v < firstOther {
				want = append(want, v)
			}
		}
		for _, it := range row {
			if v := tab[it]; v >= firstOther {
				want = append(want, v)
			}
		}
		buf = through(buf, row, tab, firstOther)
		if !slices.Equal(buf, want) {
			t.Fatalf("through(%v, tab=%v, firstOther=%d) = %v, want %v", row, tab, firstOther, buf, want)
		}
		if !slices.IsSorted(buf) {
			t.Fatalf("through(%v, tab=%v, firstOther=%d) = %v is not ascending", row, tab, firstOther, buf)
		}
	}
}

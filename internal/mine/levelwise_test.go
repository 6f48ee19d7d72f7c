package mine

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// randomDB builds a small random transaction database for oracle-based
// property tests.
func randomDB(r *rand.Rand, numTx, numItems, maxTxLen int) *txdb.DB {
	txs := make([]itemset.Set, numTx)
	for i := range txs {
		m := r.Intn(maxTxLen + 1)
		items := make([]itemset.Item, m)
		for j := range items {
			items[j] = itemset.Item(r.Intn(numItems))
		}
		txs[i] = itemset.New(items...)
	}
	return txdb.New(txs)
}

// bruteFrequent enumerates every non-empty subset of domain and returns the
// frequent ones with their supports — the ground-truth oracle.
func bruteFrequent(db *txdb.DB, minSup int, domain itemset.Set) map[string]int {
	res := map[string]int{}
	domain.ForEachSubset(func(s itemset.Set) bool {
		if sup := db.Support(s); sup >= minSup {
			res[s.Key()] = sup
		}
		return true
	})
	return res
}

// runAll drains a Levelwise, discarding any error (helper for tests whose
// configurations cannot fail).
func runAll(lw *Levelwise) [][]Counted {
	levels, _ := lw.RunAll()
	return levels
}

func flatten(levels [][]Counted) map[string]int {
	res := map[string]int{}
	for _, lv := range levels {
		for _, c := range lv {
			res[c.Set.Key()] = c.Support
		}
	}
	return res
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestAllFrequentSmall(t *testing.T) {
	db := txdb.New([]itemset.Set{
		itemset.New(1, 2, 3),
		itemset.New(1, 2),
		itemset.New(1, 3),
		itemset.New(2, 3),
		itemset.New(1, 2, 3),
	})
	levels, err := AllFrequent(context.Background(), db, 3, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(levels)
	want := bruteFrequent(db, 3, db.ActiveItems())
	if !mapsEqual(got, want) {
		t.Errorf("AllFrequent = %v, want %v", got, want)
	}
	// Level structure: level index i holds sets of size i+1.
	for i, lv := range levels {
		for _, c := range lv {
			if c.Set.Len() != i+1 {
				t.Errorf("level %d contains %v", i+1, c.Set)
			}
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if _, err := New(context.Background(), Config{}); err == nil {
		t.Error("nil DB accepted")
	}
	empty := txdb.New(nil)
	levels, err := AllFrequent(context.Background(), empty, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 0 {
		t.Errorf("empty DB produced levels: %v", levels)
	}
	// Threshold above every support.
	db := txdb.New([]itemset.Set{itemset.New(1), itemset.New(2)})
	levels, _ = AllFrequent(context.Background(), db, 5, nil, nil, nil)
	if len(levels) != 0 {
		t.Errorf("unreachable threshold produced levels: %v", levels)
	}
	// MinSupport < 1 is clamped to 1.
	lw, _ := New(context.Background(), Config{DB: db, MinSupport: -3})
	if got := flatten(runAll(lw)); len(got) != 2 {
		t.Errorf("clamped threshold: got %d sets, want 2", len(got))
	}
	// Empty domain.
	lw, _ = New(context.Background(), Config{DB: db, MinSupport: 1, Domain: itemset.New()})
	if got := flatten(runAll(lw)); len(got) != 0 {
		t.Errorf("empty domain produced sets: %v", got)
	}
}

func TestQuickMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 12+r.Intn(20), 8, 5)
		minSup := 1 + r.Intn(4)
		levels, err := AllFrequent(context.Background(), db, minSup, nil, nil, nil)
		if err != nil {
			return false
		}
		return mapsEqual(flatten(levels), bruteFrequent(db, minSup, db.ActiveItems()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDomainRestriction(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := randomDB(r, 30, 10, 6)
	domain := itemset.New(0, 2, 4, 6, 8)
	levels, err := AllFrequent(context.Background(), db, 2, domain, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(levels)
	want := bruteFrequent(db, 2, domain)
	if !mapsEqual(got, want) {
		t.Errorf("domain mining = %v, want %v", got, want)
	}
}

// TestRequiredClass checks the existential-constraint machinery: with a
// Required class, the engine must report exactly the frequent sets that
// intersect the class.
func TestRequiredClass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 15+r.Intn(25), 8, 5)
		minSup := 1 + r.Intn(3)
		var req []itemset.Item
		for i := 0; i < 8; i++ {
			if r.Intn(2) == 0 {
				req = append(req, itemset.Item(i))
			}
		}
		required := itemset.New(req...)
		if required.Empty() {
			required = itemset.New(0)
		}
		lw, err := New(context.Background(), Config{
			DB: db, MinSupport: minSup, Required: required,
		})
		if err != nil {
			return false
		}
		got := flatten(runAll(lw))
		want := map[string]int{}
		for k, v := range bruteFrequent(db, minSup, db.ActiveItems()) {
			s, _ := itemset.ParseKey(k)
			if s.Intersects(required) {
				want[k] = v
			}
		}
		return mapsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	// A seed whose class ({0}) has no member in the database: nothing is
	// valid, which is not the same as having no class.
	if !f(7355310299047471442) {
		t.Error("a Required class disjoint from the domain must validate no set")
	}
}

// TestCandidateFilter pushes an anti-monotone predicate (sum of item ids
// below a bound) and checks the result is exactly the frequent sets
// satisfying it.
func TestCandidateFilter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 20+r.Intn(20), 8, 5)
		minSup := 1 + r.Intn(3)
		bound := r.Intn(20)
		sumOK := func(s itemset.Set) bool {
			sum := 0
			for _, it := range s {
				sum += int(it)
			}
			return sum <= bound
		}
		lw, err := New(context.Background(), Config{
			DB: db, MinSupport: minSup,
			Checks: filterChecks(func(_ int, s itemset.Set) bool { return sumOK(s) }, nil),
		})
		if err != nil {
			return false
		}
		got := flatten(runAll(lw))
		want := map[string]int{}
		for k, v := range bruteFrequent(db, minSup, db.ActiveItems()) {
			s, _ := itemset.ParseKey(k)
			if sumOK(s) {
				want[k] = v
			}
		}
		return mapsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReportValidDoesNotBreakGeneration(t *testing.T) {
	// ReportValid hides sets from the output but they must still seed
	// deeper levels: require sets of size ≥ 2 only.
	db := txdb.New([]itemset.Set{
		itemset.New(1, 2, 3), itemset.New(1, 2, 3), itemset.New(1, 2, 3),
	})
	lw, err := New(context.Background(), Config{
		DB: db, MinSupport: 3,
		ReportValid: func(s itemset.Set) bool { return s.Len() >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(runAll(lw))
	want := map[string]int{
		itemset.New(1, 2).Key():    3,
		itemset.New(1, 3).Key():    3,
		itemset.New(2, 3).Key():    3,
		itemset.New(1, 2, 3).Key(): 3,
	}
	if !mapsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMaxLevel(t *testing.T) {
	db := txdb.New([]itemset.Set{
		itemset.New(1, 2, 3, 4), itemset.New(1, 2, 3, 4),
	})
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	levels := runAll(lw)
	if len(levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(levels))
	}
	if !lw.Done() {
		t.Error("not done after MaxLevel")
	}
	if sets, done, _ := lw.Step(); sets != nil || !done {
		t.Error("Step after done returned work")
	}
}

func TestStepwiseAndFrequentItems(t *testing.T) {
	db := txdb.New([]itemset.Set{
		itemset.New(1, 2), itemset.New(1, 2), itemset.New(3),
	})
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	l1, done, _ := lw.Step()
	if done || lw.Level() != 1 {
		t.Fatalf("after first step: done=%v level=%d", done, lw.Level())
	}
	if len(l1) != 2 {
		t.Fatalf("level 1 = %v", l1)
	}
	if got := lw.FrequentItems(); !got.Equal(itemset.New(1, 2)) {
		t.Errorf("FrequentItems = %v", got)
	}
	l2, _, _ := lw.Step()
	if len(l2) != 1 || !l2[0].Set.Equal(itemset.New(1, 2)) || l2[0].Support != 2 {
		t.Errorf("level 2 = %v", l2)
	}
}

// TestFrequentItemsIncludesNonRequired checks L1 contains non-required
// frequent items (the reduction constants need all of L1, not just valid
// singletons).
func TestFrequentItemsIncludesNonRequired(t *testing.T) {
	db := txdb.New([]itemset.Set{
		itemset.New(1, 2), itemset.New(1, 2), itemset.New(2),
	})
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2, Required: itemset.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	l1, _, _ := lw.Step()
	if len(l1) != 1 || !l1[0].Set.Equal(itemset.New(1)) {
		t.Fatalf("valid level 1 = %v, want only {1}", l1)
	}
	if got := lw.FrequentItems(); !got.Equal(itemset.New(1, 2)) {
		t.Errorf("FrequentItems = %v, want {1, 2}", got)
	}
}

// TestStatsCounters checks the ccc-relevant accounting: with a Required
// class every candidate counted beyond level 1 is valid.
func TestStatsCounters(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 40, 8, 5)
	stats := &Stats{}
	lw, err := New(context.Background(), Config{DB: db, MinSupport: 2, Required: itemset.New(0, 1), Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	// Instrument: a check that observes candidates (always true).
	sawInvalid := false
	lw.cfg.Checks = filterChecks(func(level int, s itemset.Set) bool {
		if level >= 2 && !s.Intersects(itemset.New(0, 1)) {
			sawInvalid = true
		}
		return true
	}, nil)
	lw.RunAll()
	if sawInvalid {
		t.Error("counted an invalid candidate beyond level 1")
	}
	if stats.CandidatesCounted == 0 || stats.DBScans != 0 {
		t.Errorf("stats not accumulated, or a pass of the run's own: %v", stats)
	}
	if stats.FrequentSets < stats.ValidSets {
		t.Errorf("frequent < valid: %v", stats)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{CandidatesCounted: 1, ItemConstraintChecks: 2, SetConstraintChecks: 3,
		PairChecks: 4, FrequentSets: 5, ValidSets: 6, DBScans: 7}
	b := a
	a.Add(b)
	if a.CandidatesCounted != 2 || a.DBScans != 14 || a.ValidSets != 12 {
		t.Errorf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

// TestParallelCountingMatchesSerial: worker counts must be identical to
// the serial path on random databases.
func TestParallelCountingMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 40+r.Intn(40), 9, 6)
		minSup := 1 + r.Intn(3)
		serial, err1 := AllFrequent(context.Background(), db, minSup, nil, nil, nil)
		lw, err2 := New(context.Background(), Config{DB: db, MinSupport: minSup, Workers: 4})
		if err1 != nil || err2 != nil {
			return false
		}
		return mapsEqual(flatten(serial), flatten(runAll(lw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

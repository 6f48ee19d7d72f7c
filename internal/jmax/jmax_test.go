package jmax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/itemset"
	"repro/internal/txdb"
)

// TestPaperNumericalExample reproduces the worked example of Section 5.2:
// 17 frequent sets of size 4 containing t1 cap the largest frequent set
// containing t1 at size 6 (J = 2), because a size-7 set would need
// C(6,3) = 20 such sets.
func TestPaperNumericalExample(t *testing.T) {
	if got := itemset.Binomial(6, 3); got != 20 {
		t.Fatalf("C(6,3) = %d", got)
	}
	// Build 17 distinct 4-sets all containing item 0, over items 1..20.
	num := make(attr.Numeric, 25)
	var sets []itemset.Set
	next := itemset.Item(1)
	for len(sets) < 17 {
		s := itemset.New(0, next, next+1, next+2)
		sets = append(sets, s)
		next++
	}
	sum, err := Summarize(sets, 4, num)
	if err != nil {
		t.Fatal(err)
	}
	// Item 0 has N = 17: J_0 = 2 (17 >= C(4,3)=4 and 17 >= C(5,3)=10, but
	// 17 < C(6,3)=20). Other items appear at most 3 times: 3 < C(4,3)=4 →
	// J = 0. So Jmax = 2 and the size bound is 6.
	if sum.Jmax != 2 {
		t.Errorf("Jmax = %d, want 2", sum.Jmax)
	}
	if sum.SizeBound() != 6 {
		t.Errorf("SizeBound = %d, want 6", sum.SizeBound())
	}
}

// TestMaxSumExample verifies the Figure-6 computation on a hand-worked
// example (values chosen so every intermediate quantity is checkable).
func TestMaxSumExample(t *testing.T) {
	// Items 1..4 with B-values 10, 20, 30, 40; frequent 2-sets below.
	num := attr.Numeric{0, 10, 20, 30, 40}
	sets := []itemset.Set{
		itemset.New(1, 2), // 30
		itemset.New(1, 3), // 40
		itemset.New(2, 3), // 50
		itemset.New(3, 4), // 70
	}
	sum, err := Summarize(sets, 2, num)
	if err != nil {
		t.Fatal(err)
	}
	// N = {1:2, 2:2, 3:3, 4:1}; with k=2, J_i = N_i - 1, so Jmax = 2 and
	// the largest frequent set has at most 4 elements.
	if sum.Jmax != 2 {
		t.Fatalf("Jmax = %d, want 2", sum.Jmax)
	}
	if sum.SizeBound() != 4 {
		t.Errorf("SizeBound = %d, want 4", sum.SizeBound())
	}
	// MaxSum per element: 1: 40+30+20=90; 2: 50+30+10=90;
	// 3: 70+40+20=130; 4: 70+30=100 (only one co-occurring element).
	// V = 130; exact level max = 70.
	if sum.V != 130 {
		t.Errorf("V = %v, want 130", sum.V)
	}
	if sum.MaxExact != 70 {
		t.Errorf("MaxExact = %v, want 70", sum.MaxExact)
	}
}

func TestSummarizeValidation(t *testing.T) {
	num := make(attr.Numeric, 5)
	if _, err := Summarize(nil, 0, num); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Summarize([]itemset.Set{itemset.New(1, 2)}, 3, num); err == nil {
		t.Error("wrong-size set accepted")
	}
	s, err := Summarize(nil, 3, num)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jmax != 0 || !math.IsInf(s.V, -1) {
		t.Errorf("empty level: %+v", s)
	}
	// k = 1: no combinatorial information.
	s, err = Summarize([]itemset.Set{itemset.New(2)}, 1, attr.Numeric{0, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Jmax != Unbounded || s.SizeBound() != Unbounded || !math.IsInf(s.V, 1) {
		t.Errorf("k=1 summary: %+v", s)
	}
	if s.MaxExact != 7 {
		t.Errorf("k=1 MaxExact = %v", s.MaxExact)
	}
}

// frequentLevels enumerates the frequent sets of a tiny database grouped by
// size (brute-force oracle).
func frequentLevels(db *txdb.DB, minSup int) [][]itemset.Set {
	domain := db.ActiveItems()
	byLen := map[int][]itemset.Set{}
	maxLen := 0
	domain.ForEachSubset(func(s itemset.Set) bool {
		if db.Support(s) >= minSup {
			byLen[s.Len()] = append(byLen[s.Len()], s.Clone())
			if s.Len() > maxLen {
				maxLen = s.Len()
			}
		}
		return true
	})
	out := make([][]itemset.Set, maxLen)
	for l := 1; l <= maxLen; l++ {
		out[l-1] = byLen[l]
	}
	return out
}

// TestQuickSoundness is the central property test: on random databases,
// the size bound must dominate the true largest frequent set and Vᵏ must
// dominate the true maximum sum over frequent sets of size ≥ k — and the
// Series combination must bound every frequent set's sum.
func TestQuickSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numItems := 7
		txs := make([]itemset.Set, 15+r.Intn(25))
		for i := range txs {
			m := 1 + r.Intn(5)
			items := make([]itemset.Item, m)
			for j := range items {
				items[j] = itemset.Item(r.Intn(numItems))
			}
			txs[i] = itemset.New(items...)
		}
		db := txdb.New(txs)
		num := make(attr.Numeric, numItems)
		for i := range num {
			num[i] = float64(r.Intn(100))
		}
		minSup := 1 + r.Intn(3)
		levels := frequentLevels(db, minSup)
		if len(levels) == 0 {
			return true
		}
		largest := len(levels)
		series := NewSeries()
		for k := 1; k <= len(levels); k++ {
			sum, err := Summarize(levels[k-1], k, num)
			if err != nil {
				t.Log(err)
				return false
			}
			// Size bound soundness.
			if sum.SizeBound() < largest {
				t.Logf("seed %d: level %d size bound %d < true largest %d",
					seed, k, sum.SizeBound(), largest)
				return false
			}
			// V soundness: max sum over frequent sets of size >= k.
			trueMax := math.Inf(-1)
			for kk := k; kk <= len(levels); kk++ {
				for _, s := range levels[kk-1] {
					v, _ := num.Eval(attr.Sum, s)
					if v > trueMax {
						trueMax = v
					}
				}
			}
			if sum.V < trueMax-1e-9 {
				t.Logf("seed %d: level %d V = %v < true max %v", seed, k, sum.V, trueMax)
				return false
			}
			series.Observe(sum)
			// After observing levels 1..k the series bound must dominate
			// every frequent set's sum (any size).
			globalMax := math.Inf(-1)
			for kk := 1; kk <= len(levels); kk++ {
				for _, s := range levels[kk-1] {
					v, _ := num.Eval(attr.Sum, s)
					if v > globalMax {
						globalMax = v
					}
				}
			}
			if series.Bound() < globalMax-1e-9 {
				t.Logf("seed %d: series bound %v < global max %v after level %d",
					seed, series.Bound(), globalMax, k)
				return false
			}
			if series.SizeBound() < largest {
				t.Logf("seed %d: series size bound %d < largest %d", seed, series.SizeBound(), largest)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSeriesTightensMonotonically asserts Lemma 7's practical consequence:
// the series bound never increases as more levels are observed.
func TestSeriesTightensMonotonically(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numItems := 7
		txs := make([]itemset.Set, 20+r.Intn(20))
		for i := range txs {
			m := 1 + r.Intn(5)
			items := make([]itemset.Item, m)
			for j := range items {
				items[j] = itemset.Item(r.Intn(numItems))
			}
			txs[i] = itemset.New(items...)
		}
		db := txdb.New(txs)
		num := make(attr.Numeric, numItems)
		for i := range num {
			num[i] = float64(r.Intn(50))
		}
		levels := frequentLevels(db, 2)
		series := NewSeries()
		prevSize := series.SizeBound()
		// Skip level 1 (uninformative) as the engine does.
		for k := 2; k <= len(levels); k++ {
			sum, err := Summarize(levels[k-1], k, num)
			if err != nil {
				return false
			}
			series.Observe(sum)
			if series.SizeBound() > prevSize {
				return false
			}
			prevSize = series.SizeBound()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNegativeValuesStaySound(t *testing.T) {
	num := attr.Numeric{-10, 5, 3, -2, 8}
	sets := []itemset.Set{
		itemset.New(0, 1), itemset.New(1, 2), itemset.New(2, 4),
		itemset.New(1, 4), itemset.New(0, 4),
	}
	sum, err := Summarize(sets, 2, num)
	if err != nil {
		t.Fatal(err)
	}
	// The bound must dominate the max pair sum (13 for {1,4}... {2,4}=11,
	// {1,4}=13) even though negative values are in play.
	if sum.V < 13 {
		t.Errorf("V = %v < 13", sum.V)
	}
	if sum.MaxExact != 13 {
		t.Errorf("MaxExact = %v, want 13", sum.MaxExact)
	}
}

func TestSeriesBeforeObservation(t *testing.T) {
	s := NewSeries()
	if !math.IsInf(s.Bound(), 1) {
		t.Errorf("fresh series bound = %v", s.Bound())
	}
	if s.SizeBound() != Unbounded {
		t.Errorf("fresh series size bound = %d", s.SizeBound())
	}
}

// TestObserveExact: exact-only observations bound nothing until the lattice
// is finished, then give the exact maximum and the deepest non-empty level;
// an empty lattice finishes at -Inf and size 0.
func TestObserveExact(t *testing.T) {
	s := NewSeries()
	s.ObserveExact(1, 3, 12)
	s.ObserveExact(2, 1, 20)
	s.ObserveExact(3, 0, math.Inf(-1))
	if !math.IsInf(s.Bound(), 1) || s.SizeBound() != Unbounded {
		t.Errorf("unfinished: bound %v size %d, want unbounded", s.Bound(), s.SizeBound())
	}
	s.Finish()
	if s.Bound() != 20 || s.SizeBound() != 2 {
		t.Errorf("finished: bound %v size %d, want 20 and 2", s.Bound(), s.SizeBound())
	}
	if h := s.History(); len(h) != 3 || h[0] != (SeriesStep{1, 12, 1}) || h[2] != (SeriesStep{3, 20, 2}) {
		t.Errorf("history = %+v", h)
	}

	empty := NewSeries()
	empty.ObserveExact(1, 0, 0)
	empty.Finish()
	if !math.IsInf(empty.Bound(), -1) || empty.SizeBound() != 0 {
		t.Errorf("empty lattice: bound %v size %d, want -Inf and 0", empty.Bound(), empty.SizeBound())
	}
}

// TestAttrs: the span-annotation rendering reports finite bounds only.
func TestAttrs(t *testing.T) {
	s := NewSeries()
	if got := s.Attrs("b0_"); got != nil {
		t.Errorf("uninitialized series rendered attrs: %v", got)
	}
	s.Observe(&Summary{K: 2, Jmax: 1, V: 42, MaxExact: 30})
	attrs := map[string]any{}
	for _, a := range s.Attrs("b0_") {
		attrs[a.Key] = a.Value
	}
	if attrs["b0_sum_bound"] != 42.0 || attrs["b0_size_bound"] != 3 {
		t.Errorf("series attrs = %v", attrs)
	}

	sum := &Summary{K: 2, Jmax: Unbounded, V: math.Inf(1)}
	attrs = map[string]any{}
	for _, a := range sum.Attrs("") {
		attrs[a.Key] = a.Value
	}
	if attrs["k"] != 2 {
		t.Errorf("summary attrs = %v", attrs)
	}
	if _, ok := attrs["jmax"]; ok {
		t.Error("unbounded jmax rendered")
	}
	if _, ok := attrs["v"]; ok {
		t.Error("infinite v rendered")
	}
}

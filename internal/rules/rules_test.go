package rules

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/txdb"
)

// answer is a hand-built CFQ answer: the valid sets of each side and the
// pairs indexing them, as core.Result holds them.
type answer struct {
	validS, validT []mine.Counted
	pairs          []core.Pair
}

// mkPair appends the pair (S, T) to the answer, each side as a new valid set.
func (a *answer) mkPair(s []itemset.Item, supS int, t []itemset.Item, supT int) {
	a.pairs = append(a.pairs, core.Pair{SI: int32(len(a.validS)), TI: int32(len(a.validT))})
	a.validS = append(a.validS, mine.Counted{Set: itemset.New(s...), Support: supS})
	a.validT = append(a.validT, mine.Counted{Set: itemset.New(t...), Support: supT})
}

// rules runs FromPairs over the answer.
func (a *answer) rules(db *txdb.DB, p Params) ([]Rule, error) {
	return FromPairs(db, a.validS, a.validT, a.pairs, p)
}

func TestFromPairsMetrics(t *testing.T) {
	// 10 transactions: {1,2} in 6, {1} alone in 2, {2} alone in 2.
	var txs []itemset.Set
	for i := 0; i < 6; i++ {
		txs = append(txs, itemset.New(1, 2))
	}
	txs = append(txs, itemset.New(1), itemset.New(1), itemset.New(2), itemset.New(2))
	db := txdb.New(txs)

	var a answer
	a.mkPair([]itemset.Item{1}, 8, []itemset.Item{2}, 8)
	rules, err := a.rules(db, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("rules = %d", len(rules))
	}
	r := rules[0]
	if r.SupportUnion != 6 {
		t.Errorf("union support = %d, want 6", r.SupportUnion)
	}
	if math.Abs(r.Confidence-0.75) > 1e-12 { // 6/8
		t.Errorf("confidence = %v, want 0.75", r.Confidence)
	}
	if math.Abs(r.Lift-0.75/(0.8)) > 1e-12 { // conf / (8/10)
		t.Errorf("lift = %v", r.Lift)
	}
	if !strings.Contains(r.String(), "=>") {
		t.Errorf("String = %q", r.String())
	}
}

func TestFromPairsFilters(t *testing.T) {
	var txs []itemset.Set
	for i := 0; i < 4; i++ {
		txs = append(txs, itemset.New(1, 2, 3))
	}
	for i := 0; i < 6; i++ {
		txs = append(txs, itemset.New(1))
	}
	db := txdb.New(txs)
	var a answer
	a.mkPair([]itemset.Item{1}, 10, []itemset.Item{2}, 4)   // conf 0.4
	a.mkPair([]itemset.Item{2}, 4, []itemset.Item{3}, 4)    // conf 1.0
	a.mkPair([]itemset.Item{1, 2}, 4, []itemset.Item{2}, 4) // overlapping

	rules, err := a.rules(db, Params{MinConfidence: 0.5, SkipOverlapping: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || !rules[0].S.Equal(itemset.New(2)) {
		t.Fatalf("rules = %v", rules)
	}
	// MinJointSupport filter.
	rules, _ = a.rules(db, Params{MinJointSupport: 5})
	if len(rules) != 0 {
		t.Fatalf("joint-support filter leaked: %v", rules)
	}
	// MinLift filter: rule 2 has lift 1/(4/10) = 2.5.
	rules, _ = a.rules(db, Params{MinLift: 2, SkipOverlapping: true})
	if len(rules) != 1 {
		t.Fatalf("lift filter: %v", rules)
	}
}

func TestFromPairsSortingAndEdges(t *testing.T) {
	if _, err := FromPairs(nil, nil, nil, nil, Params{}); err == nil {
		t.Error("nil db accepted")
	}
	empty := txdb.New(nil)
	rules, err := FromPairs(empty, nil, nil, nil, Params{})
	if err != nil || rules != nil {
		t.Errorf("empty db: %v, %v", rules, err)
	}
}

// Property: confidence and lift formulas agree with brute-force counting on
// random databases, and rules are sorted by descending confidence.
func TestQuickRuleMetrics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var txs []itemset.Set
		for i := 0; i < 20+r.Intn(20); i++ {
			m := 1 + r.Intn(5)
			items := make([]itemset.Item, m)
			for j := range items {
				items[j] = itemset.Item(r.Intn(6))
			}
			txs = append(txs, itemset.New(items...))
		}
		db := txdb.New(txs)
		var a answer
		for i := 0; i < 5; i++ {
			s := itemset.New(itemset.Item(r.Intn(6)))
			tt := itemset.New(itemset.Item(r.Intn(6)), itemset.Item(r.Intn(6)))
			a.mkPair(s, db.Support(s), tt, db.Support(tt))
		}
		rules, err := a.rules(db, Params{})
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for _, rule := range rules {
			union := rule.S.Union(rule.T)
			if rule.SupportUnion != db.Support(union) {
				return false
			}
			wantConf := float64(rule.SupportUnion) / float64(db.Support(rule.S))
			if math.Abs(rule.Confidence-wantConf) > 1e-9 {
				return false
			}
			if rule.Confidence > prev {
				return false
			}
			prev = rule.Confidence
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

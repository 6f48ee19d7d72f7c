package cfq

import (
	"bytes"
	"context"
	"math"
	"sort"
	"strings"
	"testing"
)

// marketDataset builds the running example of the paper: snacks and beers
// with prices, plus transactions correlating them.
func marketDataset(t *testing.T) *Dataset {
	t.Helper()
	ds := NewDataset(6)
	// Items: 0 chips($2), 1 pretzels($3), 2 nuts($4) — snacks;
	//        3 lager($8), 4 stout($12), 5 porter($20) — beers.
	if err := ds.SetNumeric("Price", []float64{2, 3, 4, 8, 12, 20}); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCategorical("Type", []string{
		"snacks", "snacks", "snacks", "beer", "beer", "beer",
	}); err != nil {
		t.Fatal(err)
	}
	txs := [][]int{
		{0, 1, 3}, {0, 1, 3}, {0, 1, 4}, {0, 2, 4}, {1, 2, 5},
		{0, 1, 3, 4}, {0, 3}, {1, 4}, {2, 5}, {0, 1, 2, 3, 4, 5},
	}
	if err := ds.AddTransactions(txs); err != nil {
		t.Fatal(err)
	}
	return ds
}

func pairKeys(res *Result) []string {
	var keys []string
	for _, p := range res.Pairs {
		keys = append(keys, joinInts(p.S.Items)+"|"+joinInts(p.T.Items))
	}
	sort.Strings(keys)
	return keys
}

func joinInts(v []int) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(rune('0' + x)))
	}
	return b.String()
}

func TestQuickstartFlow(t *testing.T) {
	ds := marketDataset(t)
	res, err := NewQuery(ds).
		MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price")).
		Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairCount == 0 {
		t.Fatal("no pairs found")
	}
	// Every pair must satisfy the constraint.
	priced := []float64{2, 3, 4, 8, 12, 20}
	for _, p := range res.Pairs {
		maxS := math.Inf(-1)
		for _, it := range p.S.Items {
			maxS = math.Max(maxS, priced[it])
		}
		minT := math.Inf(1)
		for _, it := range p.T.Items {
			minT = math.Min(minT, priced[it])
		}
		if maxS > minT {
			t.Errorf("pair (%v, %v) violates max(S) <= min(T)", p.S.Items, p.T.Items)
		}
		if p.S.Support < 2 || p.T.Support < 2 {
			t.Errorf("pair (%v, %v) below support", p.S.Items, p.T.Items)
		}
	}
}

// TestStrategyNames: the one name table round-trips every strategy through
// String and ParseStrategy, resolves every engine strategy, and keeps the
// accepted spellings ("" is optimized; engine spellings are not wire names).
func TestStrategyNames(t *testing.T) {
	want := []string{"optimized", "nojmax", "cap", "apriori", "fm", "sequential", "auto"}
	for i, name := range want {
		st := Strategy(i)
		if got, err := ParseStrategy(name); err != nil || got != st || st.String() != name {
			t.Errorf("strategy %d: String %q, ParseStrategy(%q) = %v, %v", i, st, name, got, err)
		}
		if st != Auto && st.internal().String() != strategyNames[st].core {
			t.Errorf("%v resolves to engine strategy %v", st, st.internal())
		}
	}
	if st, err := ParseStrategy(""); err != nil || st != Optimized {
		t.Errorf(`ParseStrategy("") = %v, %v`, st, err)
	}
	for _, bad := range []string{"apriori+", "optimized-nojmax", "Optimized", "strategy(7)"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", bad)
		}
	}
	if got := Strategy(len(want)).String(); got != "strategy(7)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestStrategiesAgreeOnPublicAPI(t *testing.T) {
	ds := marketDataset(t)
	build := func() *Query {
		return NewQuery(ds).
			MinSupport(2).
			WhereS(Domain(SubsetOf, "Type", "snacks")).
			WhereT(Domain(SubsetOf, "Type", "beer"), Aggregate(Min, "Price", GE, 8)).
			Where2(Join(Max, "Price", LE, Min, "Price"))
	}
	var want []string
	for i, st := range []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, FM} {
		res, err := build().Run(st)
		if err != nil {
			t.Fatalf("strategy %d: %v", st, err)
		}
		got := pairKeys(res)
		if i == 0 {
			want = got
			if len(want) == 0 {
				t.Fatal("query returned nothing; test needs a non-empty answer")
			}
			continue
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("strategy %d disagrees: %v vs %v", st, got, want)
		}
	}
}

func TestSnackBeerSemantics(t *testing.T) {
	ds := marketDataset(t)
	res, err := NewQuery(ds).
		MinSupport(2).
		WhereS(Domain(EqualTo, "Type", "snacks")).
		WhereT(Domain(EqualTo, "Type", "beer")).
		Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.ValidS {
		for _, it := range s.Items {
			if it > 2 {
				t.Errorf("S-set %v contains non-snack", s.Items)
			}
		}
	}
	for _, s := range res.ValidT {
		for _, it := range s.Items {
			if it < 3 {
				t.Errorf("T-set %v contains non-beer", s.Items)
			}
		}
	}
	// No 2-var constraint: cross product, no pair checks.
	if res.PairCount != int64(len(res.ValidS))*int64(len(res.ValidT)) {
		t.Errorf("PairCount = %d", res.PairCount)
	}
	if res.Stats.PairChecks != 0 {
		t.Errorf("PairChecks = %d", res.Stats.PairChecks)
	}
}

func TestMinSupportFraction(t *testing.T) {
	ds := marketDataset(t) // 10 transactions
	q := NewQuery(ds).MinSupportFraction(0.25)
	if q.minSupS != 3 || q.minSupT != 3 {
		t.Errorf("fraction threshold = %d/%d, want 3/3", q.minSupS, q.minSupT)
	}
	q = NewQuery(ds).MinSupportFraction(0)
	if q.minSupS != 1 {
		t.Errorf("zero fraction = %d, want 1", q.minSupS)
	}
	q = NewQuery(ds).MinSupportS(4).MinSupportT(2)
	if q.minSupS != 4 || q.minSupT != 2 {
		t.Error("per-side thresholds not applied")
	}
}

func TestDomainsAndMaxPairs(t *testing.T) {
	ds := marketDataset(t)
	res, err := NewQuery(ds).
		MinSupport(2).
		DomainS(0, 1).DomainT(3, 4).
		MaxPairs(2).
		Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.ValidS {
		for _, it := range s.Items {
			if it != 0 && it != 1 {
				t.Errorf("S domain violated: %v", s.Items)
			}
		}
	}
	if len(res.Pairs) > 2 {
		t.Errorf("MaxPairs ignored: %d pairs", len(res.Pairs))
	}
	if res.PairCount < int64(len(res.Pairs)) {
		t.Errorf("PairCount %d < materialized %d", res.PairCount, len(res.Pairs))
	}
}

func TestErrorPaths(t *testing.T) {
	ds := marketDataset(t)
	if _, err := NewQuery(ds).WhereS(Aggregate(Sum, "Nope", LE, 1)).Run(Optimized); err == nil {
		t.Error("unknown numeric attribute accepted")
	}
	if _, err := NewQuery(ds).WhereS(Domain(SubsetOf, "Nope")).Run(Optimized); err == nil {
		t.Error("unknown categorical attribute accepted")
	}
	if _, err := NewQuery(ds).WhereS(Domain(SubsetOf, "Type", "wine")).Run(Optimized); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := NewQuery(ds).Where2(Join(Sum, "Nope", LE, Sum, "Price")).Run(Optimized); err == nil {
		t.Error("unknown 2-var attribute accepted")
	}
	if _, err := NewQuery(ds).DomainS(99).Run(Optimized); err == nil {
		t.Error("out-of-range domain item accepted")
	}
	if _, err := NewQuery(nil).Run(Optimized); err == nil {
		t.Error("nil dataset accepted")
	}
	if err := ds.AddTransaction(1, 99); err == nil {
		t.Error("out-of-range transaction item accepted")
	}
	if err := ds.SetNumeric("Short", []float64{1}); err == nil {
		t.Error("short attribute accepted")
	}
	if err := ds.SetCategorical("Short", []string{"a"}); err == nil {
		t.Error("short categorical accepted")
	}
}

func TestExplain(t *testing.T) {
	ds := marketDataset(t)
	rep, err := NewQuery(ds).
		MinSupport(2).
		Where2(
			Join(Max, "Price", LE, Min, "Price"),
			Join(Sum, "Price", LE, Sum, "Price"),
		).ExplainQuery(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	var classes []string
	for _, ce := range rep.Constraints {
		classes = append(classes, ce.Class)
	}
	if len(classes) != 2 || !strings.HasPrefix(classes[0], "quasi-succinct") ||
		!strings.HasPrefix(classes[1], "non-quasi-succinct") {
		t.Errorf("2-var classes %q", classes)
	}
	if tree := rep.Tree(); !strings.Contains(tree, "iterative Jmax bounds") {
		t.Errorf("plan tree does not enforce the sum join by Jmax:\n%s", tree)
	}
}

func TestTransactionsRoundTrip(t *testing.T) {
	ds := marketDataset(t)
	var sb strings.Builder
	if err := ds.WriteTransactions(&sb); err != nil {
		t.Fatal(err)
	}
	ds2 := NewDataset(6)
	if err := ds2.ReadTransactions(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if ds2.NumTransactions() != ds.NumTransactions() {
		t.Errorf("round trip: %d transactions, want %d", ds2.NumTransactions(), ds.NumTransactions())
	}
	// Out-of-domain transactions rejected.
	ds3 := NewDataset(2)
	if err := ds3.ReadTransactions(strings.NewReader("0 5\n")); err == nil {
		t.Error("out-of-domain text transactions accepted")
	}
}

func TestConstraintStrings(t *testing.T) {
	specs := []string{
		Aggregate(Sum, "Price", LE, 100).String(),
		Range("Price", 0, 400).String(),
		Domain(SubsetOf, "Type", "beer").String(),
		Cardinality(GE, 2).String(),
		DistinctCount("Type", EQ, 1).String(),
		Join(Max, "Price", LE, Min, "Price").String(),
		DomainJoin(EqualTo, "Type", "Type").String(),
	}
	for _, s := range specs {
		if s == "" {
			t.Error("empty constraint string")
		}
	}
}

func TestRunRules(t *testing.T) {
	ds := marketDataset(t)
	rules, err := NewQuery(ds).
		MinSupport(2).
		WhereS(Domain(SubsetOf, "Type", "snacks")).
		WhereT(Domain(SubsetOf, "Type", "beer")).
		RunRules(Optimized, RuleParams{MinConfidence: 0.5, SkipOverlapping: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules generated")
	}
	prev := 2.0
	for _, r := range rules {
		if r.Confidence < 0.5 {
			t.Errorf("rule below confidence threshold: %+v", r)
		}
		if r.Confidence > prev {
			t.Error("rules not sorted by confidence")
		}
		prev = r.Confidence
		if r.SupportUnion > r.SupportS || r.SupportUnion > r.SupportT {
			t.Errorf("union support exceeds marginal: %+v", r)
		}
		for _, it := range r.S {
			if it > 2 {
				t.Errorf("rule S-side has non-snack: %+v", r)
			}
		}
	}
	// Error propagation from a bad query.
	if _, err := NewQuery(ds).WhereS(Aggregate(Sum, "Nope", LE, 1)).
		RunRules(Optimized, RuleParams{}); err == nil {
		t.Error("bad query accepted by RunRules")
	}
}

// TestSpanReportCoversLevels: a traced run reports every mined level of
// both sides — level spans with frequent/valid counts for the engine, filter
// spans with kept counts for a session over its cached lattice — and the
// engine's reduce span carries the reduction's numbers.
func TestSpanReportCoversLevels(t *testing.T) {
	ds := marketDataset(t)
	query := func() *Query {
		return NewQuery(ds).MinSupport(2).Where2(Join(Max, "Price", LE, Min, "Price"))
	}
	engine, err := query().RunContext(WithTracer(context.Background(), NewTracer(TracerOptions{Name: "engine"})), Optimized)
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewSession(ds).RunContext(WithTracer(context.Background(), NewTracer(TracerOptions{Name: "session"})), query())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		res   *Result
		want  map[string][]string // span name → attributes it must carry
	}{
		{"engine", engine, map[string][]string{
			"S:level-1": {"frequent", "valid"}, "T:level-1": {"frequent", "valid"},
			"S:level-2": {"frequent", "valid"}, "T:level-2": {"frequent", "valid"},
		}},
		{"session", session, map[string][]string{"S:filter": {"kept"}, "T:filter": {"kept"}}},
	} {
		for name, attrs := range tc.want {
			sp := tc.res.Report.Find(name)
			if sp == nil {
				t.Errorf("%s: no %q span", tc.label, name)
				continue
			}
			for _, a := range attrs {
				if _, ok := sp.Attrs[a]; !ok {
					t.Errorf("%s: span %q has no %q attribute: %v", tc.label, name, a, sp.Attrs)
				}
			}
		}
	}
	// A session keeps every set its filter pass kept.
	for name, sets := range map[string][]FrequentSet{"S:filter": session.ValidS, "T:filter": session.ValidT} {
		if sp := session.Report.Find(name); sp != nil && sp.Attrs["kept"] != len(sets) {
			t.Errorf("session %s kept = %v, want %d", name, sp.Attrs["kept"], len(sets))
		}
	}
	// The reduction of max(S.Price) <= min(T.Price) over this dataset: six
	// frequent items per side, one succinct condition per side, no dynamic
	// bound.
	red := engine.Report.Find("reduce")
	if red == nil {
		t.Fatal("engine: no reduce span")
	}
	for attr, want := range map[string]int{"l1_s": 6, "l1_t": 6, "conditions_s": 1, "conditions_t": 1, "dynamic_bounds": 0} {
		if got := red.Attrs[attr]; got != want {
			t.Errorf("reduce %s = %v, want %d", attr, got, want)
		}
	}
}

// TestWorkersSameAnswer: parallel support counting returns the serial answer.
// And under every strategy, a run that finds the dataset generation's
// pair-support table returns the exact result bytes — answer and Stats — of
// the run that built it.
func TestWorkersSameAnswer(t *testing.T) {
	for _, st := range []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, Sequential, Auto} {
		ds := marketDataset(t) // a new generation: the first run builds
		var runs [2][]byte
		for i := range runs {
			res, err := NewQuery(ds).MinSupport(2).
				WhereT(Aggregate(Min, "Price", GE, 8)).
				Where2(Join(Max, "Price", LE, Min, "Price")).
				Run(st)
			if err != nil {
				t.Fatal(err)
			}
			if runs[i], err = res.AppendJSON(nil); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("%v: the run that built the pair table and the one that found it differ:\n%s\n%s", st, runs[0], runs[1])
		}
	}

	ds := marketDataset(t)
	par, err := NewQuery(ds).MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price")).
		Workers(4).
		Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	ser, _ := NewQuery(ds).MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price")).
		Run(Optimized)
	if par.PairCount != ser.PairCount {
		t.Errorf("parallel PairCount %d, serial %d", par.PairCount, ser.PairCount)
	}
}

func TestCardinalityAndDistinctCount(t *testing.T) {
	ds := marketDataset(t)
	res, err := NewQuery(ds).
		MinSupport(2).
		WhereS(Cardinality(LE, 1)).
		WhereT(DistinctCount("Type", EQ, 1)).
		Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.ValidS {
		if len(s.Items) > 1 {
			t.Errorf("cardinality violated: %v", s.Items)
		}
	}
	types := []string{"snacks", "snacks", "snacks", "beer", "beer", "beer"}
	for _, s := range res.ValidT {
		seen := map[string]bool{}
		for _, it := range s.Items {
			seen[types[it]] = true
		}
		if len(seen) != 1 {
			t.Errorf("distinct count violated: %v", s.Items)
		}
	}
}

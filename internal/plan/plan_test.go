package plan

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// TestDecisionGolden pins the full decision JSON of each rule — the wire
// shape is "schema":1 plus the strategy and the rule that fired — and that
// every decision bumps plan_decisions_total{strategy}.
func TestDecisionGolden(t *testing.T) {
	for _, tc := range []struct {
		shape    Shape
		strategy string
		want     string
	}{
		{Shape{}, CAP, `{"schema":1,"strategy":"cap","reason":"no 2-var constraint"}`},
		{Shape{TwoVar: true}, Sequential, `{"schema":1,"strategy":"sequential","reason":"no dynamic bound prunes T"}`},
		{Shape{TwoVar: true, BoundsT: true}, Optimized, `{"schema":1,"strategy":"optimized","reason":"a dynamic bound prunes T"}`},
	} {
		p := New(Options{})
		before := counterValue(t, "plan_decisions_total", tc.strategy)
		got, err := json.Marshal(p.Decide(tc.shape))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%+v: decision drifted from golden:\n got: %s\nwant: %s", tc.shape, got, tc.want)
		}
		if d := counterValue(t, "plan_decisions_total", tc.strategy) - before; d != 1 {
			t.Errorf("%+v: plan_decisions_total{%s} rose by %d, want 1", tc.shape, tc.strategy, d)
		}
		if st := p.State(); st.Decisions[tc.strategy] != 1 || len(st.Decisions) != 1 {
			t.Errorf("%+v: state %+v, want one %s decision", tc.shape, st, tc.strategy)
		}
	}
}

// TestDeterminism: same shape, fresh planners ⇒ identical JSON bytes.
func TestDeterminism(t *testing.T) {
	shape := Shape{TwoVar: true, BoundsT: true}
	mk := func(p *Planner) string {
		b, err := json.Marshal(p.Decide(shape))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := mk(New(Options{})), mk(New(Options{})); a != b {
		t.Fatalf("non-deterministic decision:\n%s\n%s", a, b)
	}
	p := New(Options{})
	if a, b := mk(p), mk(p); a != b {
		t.Fatalf("same planner, different decisions:\n%s\n%s", a, b)
	}
}

// TestBenchPointChoices pins the rule's choice on the shapes the gates and
// the benchmark send: the four Figure 8 points of cfq.TestAutoNeverWorstByWork
// (whose 2-var constraints, max(S.Price) <= min(T.Price) and
// S.Type = T.Type, register no dynamic bound), the three explore-cold forms
// (max/min, sum/sum and avg/avg with <=: any bound they register prunes S),
// and the >= forms whose S term is count or a non-negative sum, which
// register a bound that prunes T. That gate and the internal/core corpus
// sweep measure the choices against every fixed strategy.
func TestBenchPointChoices(t *testing.T) {
	noBoundT := Shape{TwoVar: true}
	boundT := Shape{TwoVar: true, BoundsT: true}
	points := []struct {
		name  string
		shape Shape
		want  string
	}{
		{"fig8a-overlap-33", noBoundT, Sequential},
		{"fig8a-overlap-83", noBoundT, Sequential},
		{"fig8b-overlap-40", noBoundT, Sequential},
		{"fig8b-overlap-80", noBoundT, Sequential},
		{"explore-cold max(S) <= min(T)", noBoundT, Sequential},
		{"explore-cold sum(S) <= sum(T)", noBoundT, Sequential},
		{"explore-cold avg(S) <= avg(T)", noBoundT, Sequential},
		{"sum(S) >= sum(T)", boundT, Optimized},
		{"count(S) > max(T)", boundT, Optimized},
	}
	p := New(Options{})
	for _, pt := range points {
		if d := p.Decide(pt.shape); d.Strategy != pt.want {
			t.Errorf("%s: chose %s (%s), want %s", pt.name, d.Strategy, d.Reason, pt.want)
		}
	}
}

// TestNameMaps: every plannable name has a core spelling that maps back to
// it, and names outside the table pass through.
func TestNameMaps(t *testing.T) {
	for n, cn := range coreNames {
		if got := WireName(cn); cn == "" || got != n {
			t.Errorf("round trip %s → %q → %s", n, cn, got)
		}
	}
	if WireName("optimized-nojmax") != NoJmax || WireName("apriori+") != Apriori || WireName("cap-1var") != CAP {
		t.Error("core spellings drifted")
	}
	if WireName("auto") != "auto" {
		t.Error("unknown names must pass through")
	}
}

// TestUnconstrainedPlan: a query with no 2-var constraint has nothing to
// reduce, so it must plan to CAP — the same decision every time — and,
// there being one lattice engine, neither the decision's JSON nor its
// EXPLAIN rendering names a miner.
func TestUnconstrainedPlan(t *testing.T) {
	p := New(Options{})
	d := p.Decide(Shape{})
	if d.Strategy != CAP {
		t.Fatalf("unconstrained plan = %s, want cap", d.Strategy)
	}
	first, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(p.Decide(Shape{}))
	if string(first) != string(second) {
		t.Fatalf("same planner, different decisions:\n%s\n%s", first, second)
	}
	choice, err := json.Marshal(d.Choice())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{first, choice} {
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m["miner"]; ok {
			t.Errorf("decision still names a miner: %s", b)
		}
	}
}

// counterValue reads a labeled counter from the obs families snapshot.
func counterValue(t *testing.T, name string, labels ...string) int64 {
	t.Helper()
	for _, fam := range obs.Families() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			if len(s.LabelValues) != len(labels) {
				continue
			}
			match := true
			for i, lv := range s.LabelValues {
				if lv != labels[i] {
					match = false
					break
				}
			}
			if match {
				return int64(s.Value)
			}
		}
	}
	return 0
}

package plan

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs"
)

// fig8aFeatures is the measured feature vector of the committed
// fig8a-overlap-33 bench point (scale 25, seed 1); fig8a-overlap-83 differs
// only in DomainT/FrequentItemsT.
func fig8aFeatures() *obs.QueryFeatures {
	return &obs.QueryFeatures{
		Transactions: 4000, Items: 168,
		MinSupportS: 40, MinSupportT: 40,
		DomainS: 604, DomainT: 577,
		FrequentItemsS: 87, FrequentItemsT: 84,
		SelectivityS: 1, SelectivityT: 1,
		Constraints2: 1, QuasiSuccinct2: 1,
	}
}

func fig8bFeatures() *obs.QueryFeatures {
	return &obs.QueryFeatures{
		Transactions: 4000, Items: 168,
		MinSupportS: 40, MinSupportT: 40,
		DomainS: 168, DomainT: 168,
		FrequentItemsS: 143, FrequentItemsT: 143,
		SelectivityS: 0.72, SelectivityT: 0.52,
		Constraints1S: 1, Constraints1T: 1,
		Constraints2: 1, QuasiSuccinct2: 1,
	}
}

// TestDecisionGolden pins the full decision JSON for a fixed feature
// vector: the planner must be deterministic, and the wire shape is
// "schema":1.
func TestDecisionGolden(t *testing.T) {
	p := New(Options{})
	d := p.Decide(fig8aFeatures(), "S,T=quasi-succinct, anti-monotone")
	got, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": 1,
  "strategy": "sequential",
  "jmax": false,
  "source": "model",
  "class": "S,T=quasi-succinct, anti-monotone",
  "cost": 446.512,
  "rejected": [
    {
      "strategy": "nojmax",
      "cost": 519.51,
      "reason": "modeled cost 520 vs 447"
    },
    {
      "strategy": "optimized",
      "cost": 533.19,
      "reason": "modeled cost 533 vs 447"
    },
    {
      "strategy": "cap",
      "cost": 1770.248,
      "reason": "modeled cost 1.77e+03 vs 447"
    },
    {
      "strategy": "apriori",
      "cost": 1770.248,
      "reason": "modeled cost 1.77e+03 vs 447"
    },
    {
      "strategy": "fm",
      "cost": -1,
      "reason": "full materialization guarded to 16-item domains"
    }
  ]
}`
	if string(got) != want {
		t.Errorf("decision drifted from golden:\n got: %s\nwant: %s", got, want)
	}
}

// TestDeterminism: same features, same class, fresh planners ⇒ identical
// JSON bytes.
func TestDeterminism(t *testing.T) {
	mk := func() []byte {
		p := New(Options{})
		d := p.Decide(fig8bFeatures(), "c")
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	if string(a) != string(b) {
		t.Fatalf("non-deterministic decision:\n%s\n%s", a, b)
	}
	// And repeated decides on one planner agree too.
	p := New(Options{})
	d1, _ := json.Marshal(p.Decide(fig8bFeatures(), "c"))
	d2, _ := json.Marshal(p.Decide(fig8bFeatures(), "c"))
	if string(d1) != string(d2) {
		t.Fatalf("same planner, different decisions:\n%s\n%s", d1, d2)
	}
}

// TestBenchPointChoices grounds the static model against measured walls: on
// every workload point the chosen strategy's wall must be under 2× the best
// strategy's. The walls are frozen constants (single-sample, from the
// retired cmd/bench snapshot) awaiting ROADMAP 4(d)'s re-measurement.
func TestBenchPointChoices(t *testing.T) {
	// Walls in ms at scale 25, seed 1.
	points := []struct {
		name  string
		f     *obs.QueryFeatures
		walls map[string]float64
	}{
		{"fig8a-overlap-33", fig8aFeatures(), map[string]float64{
			Optimized: 54.5, NoJmax: 25.1, CAP: 654.3, Apriori: 601.5, Sequential: 17.3}},
		{"fig8a-overlap-83", &obs.QueryFeatures{
			Transactions: 4000, Items: 168, MinSupportS: 40, MinSupportT: 40,
			DomainS: 604, DomainT: 890, FrequentItemsS: 87, FrequentItemsT: 128,
			SelectivityS: 1, SelectivityT: 1, Constraints2: 1, QuasiSuccinct2: 1,
		}, map[string]float64{
			Optimized: 274.2, NoJmax: 273.5, CAP: 1502.9, Apriori: 1379.4, Sequential: 281.2}},
		{"fig8b-overlap-40", fig8bFeatures(), map[string]float64{
			Optimized: 115.4, NoJmax: 110.6, CAP: 518.2, Apriori: 552.8, Sequential: 111.3}},
		{"fig8b-overlap-80", fig8bFeatures(), map[string]float64{
			Optimized: 327.0, NoJmax: 329.5, CAP: 495.6, Apriori: 529.2, Sequential: 337.4}},
	}
	p := New(Options{})
	for _, pt := range points {
		d := p.Decide(pt.f, "")
		wall, ok := pt.walls[d.Strategy]
		if !ok {
			t.Errorf("%s: chose unmeasured strategy %s", pt.name, d.Strategy)
			continue
		}
		best := math.Inf(1)
		for _, w := range pt.walls {
			if w < best {
				best = w
			}
		}
		if wall >= 2*best {
			t.Errorf("%s: chose %s (%.1fms) ≥ 2× best (%.1fms)", pt.name, d.Strategy, wall, best)
		}
		t.Logf("%s: chose %s (measured %.1fms, best %.1fms, regret %.2f)",
			pt.name, d.Strategy, wall, best, wall/best)
	}
}

// TestFallback: nil or degenerate features degrade to the default strategy
// with source "fallback" — never an error — and bump
// plan_decisions_total{source="fallback"}.
func TestFallback(t *testing.T) {
	before := counterValue(t, "plan_decisions_total", "optimized", "fallback")
	p := New(Options{})
	for _, f := range []*obs.QueryFeatures{nil, {}, {Transactions: -1}} {
		d := p.Decide(f, "cls")
		if d.Source != SourceFallback {
			t.Fatalf("source = %q, want fallback", d.Source)
		}
		if d.Strategy != Optimized {
			t.Fatalf("fallback strategy = %q, want optimized", d.Strategy)
		}
		if d.Schema != 1 {
			t.Fatalf("schema = %d", d.Schema)
		}
	}
	after := counterValue(t, "plan_decisions_total", "optimized", "fallback")
	if after-before != 3 {
		t.Fatalf("plan_decisions_total{optimized,fallback} rose by %d, want 3", after-before)
	}

	// Custom default is honored; unknown default falls back to optimized.
	if d := New(Options{Default: NoJmax}).Decide(nil, ""); d.Strategy != NoJmax {
		t.Fatalf("custom default ignored: %q", d.Strategy)
	}
	if d := New(Options{Default: "bogus"}).Decide(nil, ""); d.Strategy != Optimized {
		t.Fatalf("bogus default not sanitized: %q", d.Strategy)
	}
}

// TestNameMaps: every plannable name has a core spelling that maps back to
// it, and names outside the table pass through.
func TestNameMaps(t *testing.T) {
	for _, n := range Names() {
		if got := WireName(coreNames[n]); coreNames[n] == "" || got != n {
			t.Errorf("round trip %s → %q → %s", n, coreNames[n], got)
		}
	}
	if WireName("optimized-nojmax") != NoJmax || WireName("apriori+") != Apriori || WireName("cap-1var") != CAP {
		t.Error("core spellings drifted")
	}
	if WireName("auto") != "auto" {
		t.Error("unknown names must pass through")
	}
}

// TestUnconstrainedPlan: a query with no constraints at all has nothing to
// reduce, so it must plan to a generate-and-test strategy (no replan term)
// — the same one every time — and, there being one lattice engine, neither
// the decision's JSON nor its EXPLAIN rendering names a miner.
func TestUnconstrainedPlan(t *testing.T) {
	f := &obs.QueryFeatures{
		Transactions: 4000, Items: 168, MinSupportS: 40, MinSupportT: 40,
		DomainS: 168, DomainT: 168, FrequentItemsS: 100, FrequentItemsT: 100,
		SelectivityS: 1, SelectivityT: 1,
	}
	p := New(Options{})
	d := p.Decide(f, "")
	if d.Strategy != CAP && d.Strategy != Apriori {
		t.Fatalf("unconstrained plan = %s, want cap or apriori", d.Strategy)
	}
	first, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(p.Decide(f, ""))
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

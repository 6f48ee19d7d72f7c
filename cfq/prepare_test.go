package cfq

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

func autoQuery(ds *Dataset) *Query {
	return NewQuery(ds).
		MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price"))
}

// TestAutoMatchesOptimized: strategy auto answers exactly what every fixed
// strategy answers — the planner only picks how to compute, never what.
func TestAutoMatchesOptimized(t *testing.T) {
	ds := marketDataset(t)
	want, err := autoQuery(ds).Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	got, err := autoQuery(ds).Run(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got.PairCount != want.PairCount {
		t.Fatalf("auto pair count %d, optimized %d", got.PairCount, want.PairCount)
	}
	gk, wk := pairKeys(got), pairKeys(want)
	if strings.Join(gk, ";") != strings.Join(wk, ";") {
		t.Fatalf("auto pairs %v, optimized pairs %v", gk, wk)
	}
}

// TestPreparedReuse: one Prepare, many Runs — the decision is made once and
// every execution replays it with identical answers.
func TestPreparedReuse(t *testing.T) {
	ds := marketDataset(t)
	p, err := autoQuery(ds).Prepare(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy() == Auto {
		t.Fatal("prepared strategy was not resolved")
	}
	d := p.Decision()
	if d == nil {
		t.Fatal("auto-prepared query has no decision")
	}
	if d.Schema != 1 {
		t.Fatalf("decision schema = %d, want 1", d.Schema)
	}
	if got := p.Strategy().String(); got != d.Strategy {
		t.Fatalf("prepared strategy %q != decision strategy %q", got, d.Strategy)
	}
	first, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.PairCount != second.PairCount ||
		strings.Join(pairKeys(first), ";") != strings.Join(pairKeys(second), ";") {
		t.Fatal("repeated runs of one prepared plan disagree")
	}
}

// TestPreparedFixedStrategy: preparing a concrete strategy skips planning.
func TestPreparedFixedStrategy(t *testing.T) {
	ds := marketDataset(t)
	p, err := autoQuery(ds).Prepare(Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy() != Sequential {
		t.Fatalf("strategy = %v, want sequential", p.Strategy())
	}
	if p.Decision() != nil {
		t.Fatal("fixed-strategy prepare produced a planner decision")
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSnapshotStable: a prepared plan answers over the snapshot it
// captured — mutations after Prepare do not bleed into its answer.
// (Staleness rejection is the handle holder's job; the server's plan cache
// returns a structured stale_generation error instead of re-running.)
func TestPreparedSnapshotStable(t *testing.T) {
	ds := marketDataset(t)
	p, err := autoQuery(ds).Prepare(Auto)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTransactions([][]int{{0, 3}, {0, 3}, {0, 3}, {0, 3}}); err != nil {
		t.Fatal(err)
	}
	after, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if after.PairCount != before.PairCount {
		t.Fatalf("prepared plan saw the mutation: %d pairs, want %d", after.PairCount, before.PairCount)
	}
	// A fresh run over the mutated dataset does see the new transactions.
	fresh, err := autoQuery(ds).Run(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.PairCount == before.PairCount {
		t.Skip("mutation did not change the answer; snapshot test is vacuous")
	}
}

// TestAutoExplainCarriesPlanner: EXPLAIN under auto renders the decision —
// chosen strategy and the rule that fired.
func TestAutoExplainCarriesPlanner(t *testing.T) {
	ds := marketDataset(t)
	rep, err := autoQuery(ds).ExplainQuery(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planner == nil {
		t.Fatal("auto EXPLAIN has no planner node")
	}
	if rep.Planner.Reason == "" || rep.Planner.Strategy == "" {
		t.Fatalf("planner node incomplete: %+v", rep.Planner)
	}
	tree := rep.Tree()
	if !strings.Contains(tree, "planner: chose "+rep.Planner.Strategy+" ("+rep.Planner.Reason+")") {
		t.Fatalf("Tree() does not render the planner node:\n%s", tree)
	}
	// Fixed-strategy EXPLAIN stays planner-free.
	fixed, err := autoQuery(ds).ExplainQuery(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Planner != nil {
		t.Fatal("fixed-strategy EXPLAIN grew a planner node")
	}
}

// TestAutoExplainAnalyze: EXPLAIN ANALYZE under auto keeps both contracts —
// the planner node and the pruning-attribution sum.
func TestAutoExplainAnalyze(t *testing.T) {
	ds := marketDataset(t)
	res, rep, err := autoQuery(ds).ExplainAnalyze(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planner == nil {
		t.Fatal("analyzed auto report has no planner node")
	}
	if !rep.Analyzed {
		t.Fatal("report not marked analyzed")
	}
	if got, want := rep.SumPruned(), res.Stats.CandidatesPruned; got != want {
		t.Fatalf("attributed pruning %d != stats pruned %d", got, want)
	}
}

// TestAutoTraceSpan: a traced auto run records the plan:decide span; a
// traced prepared re-run does not (planning happened once, at Prepare).
func TestAutoTraceSpan(t *testing.T) {
	ds := marketDataset(t)
	tr := NewTracer(TracerOptions{Name: "test"})
	res, err := autoQuery(ds).RunContext(WithTracer(context.Background(), tr), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || !reportHasSpan(res.Report.Root, "plan:decide") {
		t.Fatal("auto run did not record a plan:decide span")
	}

	p, err := autoQuery(ds).Prepare(Auto)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := NewTracer(TracerOptions{Name: "test"})
	res2, err := p.RunContext(WithTracer(context.Background(), tr2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report != nil && reportHasSpan(res2.Report.Root, "plan:decide") {
		t.Fatal("prepared re-run re-planned: found a plan:decide span")
	}
}

func reportHasSpan(s *SpanReport, name string) bool {
	if s == nil {
		return false
	}
	if s.Name == name {
		return true
	}
	for _, c := range s.Children {
		if reportHasSpan(c, name) {
			return true
		}
	}
	return false
}

// TestSessionPrepare: a session-prepared handle executes through the
// session cache and agrees with the engine.
func TestSessionPrepare(t *testing.T) {
	ds := marketDataset(t)
	want, err := autoQuery(ds).Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(ds)
	p, err := s.Prepare(autoQuery(ds))
	if err != nil {
		t.Fatal(err)
	}
	if p.Decision() != nil {
		t.Fatal("session prepare produced a planner decision")
	}
	got, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pairKeys(got), ";") != strings.Join(pairKeys(want), ";") {
		t.Fatal("session-prepared answer disagrees with engine answer")
	}
	// Wrong-dataset queries are rejected at Prepare, like Session.Run.
	other := marketDataset(t)
	if _, err := s.Prepare(autoQuery(other)); err == nil {
		t.Fatal("session prepared a query from another dataset")
	}
}

// TestParseStrategyAuto: the auto spelling round-trips.
func TestParseStrategyAuto(t *testing.T) {
	s, err := ParseStrategy("auto")
	if err != nil || s != Auto {
		t.Fatalf("ParseStrategy(auto) = %v, %v", s, err)
	}
	if Auto.String() != "auto" {
		t.Fatalf("Auto.String() = %q", Auto.String())
	}
}

// TestAutoSmallDomainNotFM: FM runs on domains of at most 16 items, where it
// counts the most candidates of any strategy. Strategy auto must not resolve
// to it there, and must count no more candidates than sequential.
func TestAutoSmallDomainNotFM(t *testing.T) {
	for _, items := range []int{8, 12} {
		ds := NewDataset(items)
		r := rand.New(rand.NewSource(1))
		prices := make([]float64, items)
		for i := range prices {
			prices[i] = float64(1 + r.Intn(20))
		}
		if err := ds.SetNumeric("Price", prices); err != nil {
			t.Fatal(err)
		}
		txs := make([][]int, 200)
		for i := range txs {
			for j := 0; j < 2+r.Intn(4); j++ {
				txs[i] = append(txs[i], r.Intn(items))
			}
		}
		if err := ds.AddTransactions(txs); err != nil {
			t.Fatal(err)
		}
		q := NewQuery(ds).MinSupport(4).Where2(Join(Sum, "Price", LE, Sum, "Price"))
		p, err := q.Prepare(Auto)
		if err != nil {
			t.Fatal(err)
		}
		if p.Strategy() == FM {
			t.Errorf("%d items: auto resolved to fm", items)
		}
		auto, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := q.Run(Sequential)
		if err != nil {
			t.Fatal(err)
		}
		if a, s := auto.Stats.CandidatesCounted, seq.Stats.CandidatesCounted; a > s {
			t.Errorf("%d items: auto (%v) counted %d candidates, sequential %d", items, p.Strategy(), a, s)
		}
	}
}

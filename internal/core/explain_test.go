package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/twovar"
	"repro/internal/txdb"
)

// TestPruneAttributionParity is the pruning analogue of the span-delta
// contract, checked property-style: on random queries, for every strategy,
// (1) the PruneSet's per-site charges sum exactly to the engine's
// CandidatesPruned total, and (2) AnalyzeExplain partitions those charges
// into constraint / bound / other buckets without losing or double-counting
// a single candidate. Run under -race this also exercises the PruneSet's
// locking from the parallel counting path.
func TestPruneAttributionParity(t *testing.T) {
	strategies := []Strategy{
		StrategyOptimized, StrategyOptimizedNoJmax, StrategyCAPOnly,
		StrategyAprioriPlus, StrategyFM, StrategySequential,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(r, 7, 15+r.Intn(25))
		q := randomCFQ(r, w)
		for _, st := range strategies {
			rep, err := BuildExplain(q, st)
			if err != nil {
				t.Logf("seed %d strategy %v: BuildExplain: %v", seed, st, err)
				return false
			}
			prune := obs.NewPruneSet()
			ctx := obs.WithPruning(context.Background(), prune)
			res, err := Run(ctx, q, st)
			if err != nil {
				t.Logf("seed %d strategy %v: %v", seed, st, err)
				return false
			}
			if got, want := prune.Total(), res.Stats.CandidatesPruned; got != want {
				t.Logf("seed %d strategy %v: site charges sum to %d, engine pruned %d\nsites: %v",
					seed, st, got, want, prune.Snapshot())
				return false
			}
			AnalyzeExplain(rep, res, prune)
			if rep.TotalPruned != res.Stats.CandidatesPruned {
				t.Logf("seed %d strategy %v: TotalPruned %d != stats %d",
					seed, st, rep.TotalPruned, res.Stats.CandidatesPruned)
				return false
			}
			if got := rep.SumPruned(); got != rep.TotalPruned {
				t.Logf("seed %d strategy %v: report buckets sum to %d, total %d\nother: %v",
					seed, st, got, rep.TotalPruned, rep.OtherPruned)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// explainWorld builds the deterministic two-sided query used by the
// non-property explain tests: spread S prices against low T prices with a
// quasi-succinct max<=min join, so the optimized strategy reduces the 2-var
// constraint and every stage of the plan has work to do.
func explainWorld() CFQ {
	var txs []itemset.Set
	for i := 0; i < 20; i++ {
		txs = append(txs, itemset.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	}
	num := attr.Numeric{1, 3, 5, 7, 9, 2, 4, 4, 2, 2}
	return CFQ{
		DB: txdb.New(txs), MinSupportS: 2, MinSupportT: 2,
		DomainS: itemset.New(0, 1, 2, 3, 4),
		DomainT: itemset.New(5, 6, 7, 8, 9),
		ConstraintsS: []constraint.Constraint{
			constraint.Agg(attr.Sum, num, "Price", constraint.LE, 12),
		},
		Constraints2: []twovar.Constraint2{
			twovar.Agg2(attr.Max, num, "Price", constraint.LE, attr.Min, num, "Price"),
		},
	}
}

// TestBuildExplainAnnotations: plan-mode reports carry the classification
// and enforcement sites of every pushed constraint — and nothing that
// requires a run (no actuals, no bounds).
func TestBuildExplainAnnotations(t *testing.T) {
	q := explainWorld()
	rep, err := BuildExplain(q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != obs.ReportSchema {
		t.Errorf("Schema = %d, want %d", rep.Schema, obs.ReportSchema)
	}
	if rep.Analyzed {
		t.Error("plan-mode report marked analyzed")
	}
	if len(rep.Bounds) != 0 || rep.TotalPruned != 0 {
		t.Errorf("plan-mode report has run artifacts: bounds=%d total=%d",
			len(rep.Bounds), rep.TotalPruned)
	}
	if len(rep.Constraints) != 2 {
		t.Fatalf("constraints = %d, want 2 (1-var + 2-var)", len(rep.Constraints))
	}
	oneVar, twoVar := rep.Constraints[0], rep.Constraints[1]
	if oneVar.Variable != "S" || oneVar.Class == "" || len(oneVar.EnforcedAt) == 0 {
		t.Errorf("1-var entry: %+v", oneVar)
	}
	if twoVar.Variable != "S,T" || twoVar.Class == "" || len(twoVar.EnforcedAt) == 0 {
		t.Errorf("2-var entry: %+v", twoVar)
	}
}

// TestAnalyzeExplainJoinsPlan: an analyzed optimized run adds the reduced
// 1-var conditions with their 2-var origin and charges the frequency and
// constraint sites so the tree shows real numbers.
func TestAnalyzeExplainJoinsPlan(t *testing.T) {
	q := explainWorld()
	rep, err := BuildExplain(q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	prune := obs.NewPruneSet()
	res, err := Run(obs.WithPruning(context.Background(), prune), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	AnalyzeExplain(rep, res, prune)
	if !rep.Analyzed {
		t.Error("report not marked analyzed")
	}
	origin := "max(S.Price) <= min(T.Price)"
	var reduced *obs.ConstraintExplain
	for _, ce := range rep.Constraints {
		if ce.Origin == origin {
			reduced = ce
		}
	}
	if reduced == nil {
		t.Fatalf("no reduced condition with origin %q in %d entries", origin, len(rep.Constraints))
	}
	if reduced.Class != "reduced 1-var condition" {
		t.Errorf("reduced class = %q", reduced.Class)
	}
	if rep.SumPruned() != rep.TotalPruned || rep.TotalPruned != res.Stats.CandidatesPruned {
		t.Errorf("sum %d, total %d, stats %d", rep.SumPruned(), rep.TotalPruned, res.Stats.CandidatesPruned)
	}
	// Everything in this fixture is frequent, so every pruned candidate must
	// be attributed to a constraint or bound entry, with real numbers.
	var attributed int64
	for _, ce := range rep.Constraints {
		attributed += ce.ActualPruned
	}
	for _, be := range rep.Bounds {
		attributed += be.ActualPruned
	}
	if attributed == 0 {
		t.Error("no pruning attributed to any constraint or bound")
	}
	tree := rep.Tree()
	for _, want := range []string{"EXPLAIN ANALYZE", "total pruned:", "origin: " + origin} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestSequentialBoundTrajectories: under the sequential schedule every
// dynamic bound's EXPLAIN ANALYZE trajectory names the real levels of the
// lattice it was read from and ends at the exact bound that was applied —
// whether the bound pruned S candidates, could only gate S's report (avg),
// counted sizes, or pruned T from the finished S lattice.
func TestSequentialBoundTrajectories(t *testing.T) {
	_, num := sumSumQuery()
	cases := []struct {
		c2     twovar.Constraint2
		levels int    // levels of the feeding lattice, the empty last one included
		last   string // the applied bound: T's singletons sum to 10, S's clique to 8·15
	}{
		{twovar.Agg2(attr.Sum, num, "Price", constraint.LE, attr.Sum, num, "Price"), 2, "k=2: <=10"},
		{twovar.Agg2(attr.Avg, num, "Price", constraint.LE, attr.Sum, num, "Price"), 2, "k=2: <=10"},
		{twovar.Agg2(attr.Count, num, "Price", constraint.LE, attr.Count, num, "Price"), 2, "k=2: size<=1"},
		{twovar.Agg2(attr.Sum, num, "Price", constraint.GE, attr.Sum, num, "Price"), 9, "k=9: <=120"},
	}
	for _, c := range cases {
		q, _ := sumSumQuery()
		q.Constraints2 = []twovar.Constraint2{c.c2}
		rep, err := BuildExplain(q, StrategySequential)
		if err != nil {
			t.Fatal(err)
		}
		prune := obs.NewPruneSet()
		res, err := Run(obs.WithPruning(context.Background(), prune), q, StrategySequential)
		if err != nil {
			t.Fatal(err)
		}
		AnalyzeExplain(rep, res, prune)
		if len(rep.Bounds) != 1 {
			t.Fatalf("%v: %d bounds, want 1", c.c2, len(rep.Bounds))
		}
		traj := rep.Bounds[0].Trajectory
		if len(traj) != c.levels || traj[len(traj)-1] != c.last {
			t.Errorf("%v: trajectory %v, want %d levels ending %q", c.c2, traj, c.levels, c.last)
		}
		for i, line := range traj {
			if !strings.HasPrefix(line, fmt.Sprintf("k=%d: ", i+1)) {
				t.Errorf("%v: trajectory entry %d is %q", c.c2, i, line)
			}
		}
		if rep.SumPruned() != res.Stats.CandidatesPruned {
			t.Errorf("%v: report buckets sum to %d, engine pruned %d", c.c2, rep.SumPruned(), res.Stats.CandidatesPruned)
		}
	}
}

// TestSplitSite pins the site-key grammar the explain join depends on.
func TestSplitSite(t *testing.T) {
	cases := []struct{ site, label, stage, detail string }{
		{"S:frequency", "S", "frequency", ""},
		{"frequency", "", "frequency", ""},
		{"S:domain-filter:sum(S.Price) <= 12", "S", "domain-filter", "sum(S.Price) <= 12"},
		{"pairs:max(S.A) <= min(T.B)", "", "pairs", "max(S.A) <= min(T.B)"},
		{"S:jmax:sum(S.A) <= V^k(B)", "S", "jmax", "sum(S.A) <= V^k(B)"},
		{"fm-S:materialize:count(S) >= 1", "fm-S", "materialize", "count(S) >= 1"},
	}
	for _, c := range cases {
		label, stage, detail := splitSite(c.site)
		if label != c.label || stage != c.stage || detail != c.detail {
			t.Errorf("splitSite(%q) = (%q, %q, %q), want (%q, %q, %q)",
				c.site, label, stage, detail, c.label, c.stage, c.detail)
		}
	}
}

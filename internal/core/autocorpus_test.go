package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/plan"
)

// TestAutoCorpusByWork runs the planner's rule over a randomized corpus
// (newWorld/randomCFQ on 7–12 items, MaxLevel 2 on every third seed): the
// strategy it picks answers what the oracle answers, and its candidates
// counted, summed over the corpus, are no more than any fixed strategy's sum.
func TestAutoCorpusByWork(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	planner := plan.New(plan.Options{})
	var auto int64
	sums := make([]int64, len(Strategies()))
	for seed := 1; seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		w := newWorld(r, 7+r.Intn(6), 30+r.Intn(80))
		q := randomCFQ(r, w)
		if seed%3 == 0 {
			q.MaxLevel = 2
		}
		d := planner.Decide(plan.Shape{TwoVar: len(q.Constraints2) > 0, BoundsT: BoundsT(q)})
		chosen := false
		for _, s := range Strategies() {
			res, err := Run(context.Background(), q, s)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			sums[s] += res.Stats.CandidatesCounted
			if plan.WireName(s.String()) != d.Strategy {
				continue
			}
			chosen = true
			auto += res.Stats.CandidatesCounted
			if want := oraclePairs(w, q); !pairsEqual(resultPairs(res), want) {
				t.Errorf("seed %d: auto (%v) found %d pairs, oracle %d (2-var: %v)",
					seed, s, len(res.Pairs), len(want), q.Constraints2)
			}
		}
		if !chosen {
			t.Fatalf("seed %d: planner chose unknown strategy %q", seed, d.Strategy)
		}
	}
	for _, s := range Strategies() {
		if auto > sums[s] {
			t.Errorf("auto counted %d candidates over %d seeds, %v %d", auto, seeds, s, sums[s])
		}
		t.Logf("%v: %d", s, sums[s])
	}
	t.Logf("auto: %d over %d seeds, decisions %v", auto, seeds, planner.State().Decisions)
}

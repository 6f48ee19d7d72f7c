package cfq

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// TestAutoNeverWorstByWork is the planner's gate, in process and by work:
// on the four points plan.TestBenchPointChoices prices (Figure 8(a) at 33%
// and 83% overlap, Figure 8(b) at 40% and 80% Type overlap), built by
// internal/exp at test scale, strategy auto must return the answer every
// fixed strategy returns and count strictly fewer candidates than the worst
// of them. Candidate counts are exact, so the gate has no noise band. FM is
// left out: it refuses domains over 16 items. auto's regret by work (its
// count over the best fixed strategy's) is logged, not yet bounded.
func TestAutoNeverWorstByWork(t *testing.T) {
	cfg := exp.Config{Scale: 50, Seed: 1, SupportFrac: 0.02}
	points := []struct {
		name  string
		build func() (core.CFQ, error)
	}{
		{"fig8a-overlap-33", func() (core.CFQ, error) { return exp.Fig8aQuery(cfg, 400, 400+33.3/100*600) }},
		{"fig8a-overlap-83", func() (core.CFQ, error) { return exp.Fig8aQuery(cfg, 400, 400+83.4/100*600) }},
		{"fig8b-overlap-40", func() (core.CFQ, error) { return exp.Fig8bQuery(cfg, 400, 600, 40) }},
		{"fig8b-overlap-80", func() (core.CFQ, error) { return exp.Fig8bQuery(cfg, 400, 600, 80) }},
	}
	ctx := context.Background()
	run := func(t *testing.T, q core.CFQ, strat Strategy) (*Prepared, *core.Result) {
		t.Helper()
		p := prepare(ctx, nil, q, nil, strat)
		res, err := p.execute(ctx)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		return p, res
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			q, err := pt.build()
			if err != nil {
				t.Fatal(err)
			}
			q.MaxPairs = 0 // the whole answer, so answers compare as sets
			p, auto := run(t, q, Auto)
			want := answer(auto)
			var worst, best int64
			worstName := ""
			for _, s := range []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, Sequential} {
				_, res := run(t, q, s)
				if got := answer(res); !slices.Equal(got, want) {
					t.Fatalf("%v: %d answer pairs differ from auto's %d", s, len(got), len(want))
				}
				n := res.Stats.CandidatesCounted
				if n > worst {
					worst, worstName = n, s.String()
				}
				if best == 0 || n < best {
					best = n
				}
			}
			counted := auto.Stats.CandidatesCounted
			if counted >= worst {
				t.Errorf("auto chose %v and counted %d candidates, no fewer than the worst fixed strategy (%s, %d)",
					p.Strategy(), counted, worstName, worst)
			}
			t.Logf("auto chose %v: %d pairs, counted %d, best fixed %d, worst fixed %d (%s); regret by work %.2f",
				p.Strategy(), len(want), counted, best, worst, worstName, float64(counted)/float64(max(best, 1)))
		})
	}
}

// answer is a result's pairs as sorted "S|T" keys.
func answer(res *core.Result) []string {
	keys := make([]string, len(res.Pairs))
	for i, p := range res.Pairs {
		keys[i] = fmt.Sprintf("%v|%v", p.S.Set, p.T.Set)
	}
	slices.Sort(keys)
	return keys
}

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
// on four Figure 8 points (8(a) at 33% and 83% overlap, 8(b) at 40% and 80%
// Type overlap), built by internal/exp at test scale, strategy auto must
// return the answer every fixed strategy returns and count exactly as many
// candidates as the best of them. Candidate counts are exact, so the gate
// has no noise band. FM is left out: it refuses domains over 16 items.
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
		p := prepare(ctx, defaultPlanner.Decide, q, nil, strat)
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
			var best int64
			bestName := ""
			for _, s := range []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, Sequential} {
				_, res := run(t, q, s)
				if got := answer(res); !slices.Equal(got, want) {
					t.Fatalf("%v: %d answer pairs differ from auto's %d", s, len(got), len(want))
				}
				if n := res.Stats.CandidatesCounted; bestName == "" || n < best {
					best, bestName = n, s.String()
				}
			}
			if counted := auto.Stats.CandidatesCounted; counted != best {
				t.Errorf("auto chose %v and counted %d candidates; the best fixed strategy (%s) counted %d",
					p.Strategy(), counted, bestName, best)
			}
			t.Logf("auto chose %v: %d pairs, counted %d, best fixed %s %d",
				p.Strategy(), len(want), auto.Stats.CandidatesCounted, bestName, best)
		})
	}
}

// answer is a result's pairs as sorted "S|T" keys.
func answer(res *core.Result) []string {
	validS, validT := res.ValidS(), res.ValidT()
	keys := make([]string, len(res.Pairs))
	for i, p := range res.Pairs {
		keys[i] = fmt.Sprintf("%v|%v", validS[p.SI].Set, validT[p.TI].Set)
	}
	slices.Sort(keys)
	return keys
}

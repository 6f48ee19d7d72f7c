package main

import (
	"strings"
	"testing"

	"repro/internal/obs/workload"
)

// TestAssertAutoRegret: the -assert-auto gate compares auto against the
// worst fixed strategy with the benchmark's noise band — inside the band is
// identical work measured twice, outside it is a planner defect.
func TestAssertAutoRegret(t *testing.T) {
	class := func(name string, regrets map[string]float64) workload.ClassRegret {
		cr := workload.ClassRegret{Class: name}
		for _, s := range []string{"auto", "optimized", "cap", "apriori"} {
			if r, ok := regrets[s]; ok {
				cr.Strategies = append(cr.Strategies, workload.StrategyRegret{Strategy: s, Runs: 3, Regret: r})
			}
		}
		return cr
	}
	cases := []struct {
		name    string
		regret  []workload.ClassRegret
		wantOut string // substring of the report
		wantErr string // substring of the error; empty = gate passes
	}{
		{
			name:    "auto better than the worst fixed",
			regret:  []workload.ClassRegret{class("c", map[string]float64{"auto": 1.0, "cap": 1.1, "apriori": 1.3})},
			wantOut: "assert-auto: ok (1 class(es)",
		},
		{
			name:    "auto worst, inside the band",
			regret:  []workload.ClassRegret{class("c", map[string]float64{"auto": 1.2, "cap": 1.0, "apriori": 1.05})},
			wantOut: "within 1.25x",
		},
		{
			name:    "auto worst, outside the band",
			regret:  []workload.ClassRegret{class("slow-class", map[string]float64{"auto": 1.4, "cap": 1.0, "apriori": 1.05})},
			wantOut: "slow-class: auto regret 1.40x exceeds worst fixed strategy apriori (1.05x)",
			wantErr: "1 class(es) where the planner is the worst measured choice",
		},
		{
			name: "class without auto runs is skipped",
			regret: []workload.ClassRegret{
				class("fixed-only", map[string]float64{"cap": 1.0, "apriori": 3.0}),
				class("c", map[string]float64{"auto": 1.0, "cap": 1.0}),
			},
			wantOut: "assert-auto: ok (1 class(es)",
		},
		{
			name:    "nothing to check",
			regret:  []workload.ClassRegret{class("fixed-only", map[string]float64{"cap": 1.0, "apriori": 3.0})},
			wantErr: "no class has both shadowed auto and fixed-strategy runs",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := assertAutoRegret(&out, c.regret)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("err = %v, want pass\n%s", err, out.String())
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("err = %v, want %q\n%s", err, c.wantErr, out.String())
			}
			if !strings.Contains(out.String(), c.wantOut) {
				t.Errorf("report %q lacks %q", out.String(), c.wantOut)
			}
		})
	}
}

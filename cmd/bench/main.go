// Command bench is the perf-trajectory harness: it measures the
// per-strategy cost of the paper's Section 7 workloads (Figure 8(a) and
// 8(b) points) and records the measurements in a JSON snapshot. Committing
// the snapshot (BENCH.json at the repo root) gives every future change a
// baseline to diff against:
//
//	go run ./cmd/bench -out BENCH.json                   # refresh baseline
//	go run ./cmd/bench -compare BENCH.json -threshold 2  # regression gate
//
// -compare re-measures the workloads and exits non-zero when any metric
// regressed beyond the threshold ratio, so scripts/check.sh can run it as
// a smoke gate. Wall time and allocation metrics are machine-dependent and
// only gated by the (generous) threshold; the work counters (candidates,
// DB scans) are deterministic for a given scale and seed, and a counter
// regression past the threshold is treated the same way.
//
// With -plan (the default), every workload point also runs under the
// cost-based planner: the "auto" rows record the chosen strategy, the best
// measured fixed strategy, and the chosen-vs-best wall regret (planning
// time included). Under -compare, auto reaching -plan-threshold× the best
// measured strategy fails the gate alongside metric regressions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	obsworkload "repro/internal/obs/workload"
	"repro/internal/plan"
)

// schema versions the snapshot's JSON shape.
const schema = 1

// entry is one (workload, strategy) measurement. The "auto" rows are the
// planner's: Chosen records the strategy the cost model picked, Best the
// workload's fastest measured fixed strategy, and Regret the chosen-vs-best
// wall ratio (planning time included in the auto wall).
type entry struct {
	Workload     string  `json:"workload"`
	Strategy     string  `json:"strategy"`
	WallNS       int64   `json:"wall_ns"`
	Candidates   int64   `json:"candidates"`
	Pruned       int64   `json:"pruned"`
	DBScans      int64   `json:"db_scans"`
	LatticeBytes int64   `json:"lattice_bytes"`
	AllocBytes   int64   `json:"alloc_bytes"`
	Pairs        int64   `json:"pairs"`
	Chosen       string  `json:"chosen,omitempty"`
	Best         string  `json:"best,omitempty"`
	Regret       float64 `json:"regret,omitempty"`
}

func (e entry) key() string { return e.Workload + "|" + e.Strategy }

// benchFile is the snapshot format.
type benchFile struct {
	Schema  int     `json:"schema"`
	Scale   int     `json:"scale"`
	Seed    int64   `json:"seed"`
	Entries []entry `json:"entries"`
}

// workload is one named Section 7 query point.
type workload struct {
	name  string
	build func(cfg exp.Config) (core.CFQ, error)
}

var workloads = []workload{
	{"fig8a-overlap-33", func(cfg exp.Config) (core.CFQ, error) { return exp.Fig8aQuery(cfg, 400, 600) }},
	{"fig8a-overlap-83", func(cfg exp.Config) (core.CFQ, error) { return exp.Fig8aQuery(cfg, 400, 900) }},
	{"fig8b-overlap-40", func(cfg exp.Config) (core.CFQ, error) { return exp.Fig8bQuery(cfg, 400, 600, 40) }},
	{"fig8b-overlap-80", func(cfg exp.Config) (core.CFQ, error) { return exp.Fig8bQuery(cfg, 400, 600, 80) }},
}

// The FM strategy is excluded: it is guarded to tiny item domains and the
// Section 7 workloads run hundreds of items. Enumerated through
// core.Strategies() so strategy selection stays centralized in the engine
// and the planner.
var strategies = func() []core.Strategy {
	var out []core.Strategy
	for _, st := range core.Strategies() {
		if st.String() != "fm" {
			out = append(out, st)
		}
	}
	return out
}()

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		scale        = flag.Int("scale", 25, "database scale divisor (transactions = 100000/scale)")
		seed         = flag.Int64("seed", 1, "generator seed")
		runs         = flag.Int("runs", 1, "measurement repetitions per point (best wall time wins)")
		out          = flag.String("out", "", "write the snapshot JSON to this file ('' = stdout)")
		compareFile  = flag.String("compare", "", "baseline snapshot to diff the fresh measurements against")
		threshold    = flag.Float64("threshold", 2.0, "regression ratio: new/old beyond this fails the -compare gate")
		workloadList = flag.String("workloads", "", "comma-separated workload names to run (default all)")
		strategyList = flag.String("strategies", "", "comma-separated strategy names to run (default all)")
		regretFlag   = flag.Bool("regret", false, "print a per-workload strategy-regret table (with -compare, cross-check best strategies against the baseline)")
		planFlag     = flag.Bool("plan", true, "also run the cost-based planner on every workload point and record the chosen-vs-best auto row")
		planGate     = flag.Float64("plan-threshold", 2.0, "with -compare: fail when the planner's auto wall reaches this multiple of the best measured fixed strategy")
	)
	flag.Parse()

	wls, err := selectWorkloads(*workloadList)
	if err != nil {
		return err
	}
	strats, err := selectStrategies(*strategyList)
	if err != nil {
		return err
	}

	cfg := exp.Config{Scale: *scale, Seed: *seed}
	snap := benchFile{Schema: schema, Scale: *scale, Seed: *seed}
	var planProblems []string
	for _, wl := range wls {
		q, err := wl.build(cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", wl.name, err)
		}
		var best entry
		for _, st := range strats {
			e, err := measure(wl.name, q, st, *runs)
			if err != nil {
				return fmt.Errorf("%s/%v: %v", wl.name, st, err)
			}
			fmt.Fprintf(os.Stderr, "%-18s %-16s wall=%-12v candidates=%-8d scans=%-4d pruned=%d\n",
				e.Workload, e.Strategy, time.Duration(e.WallNS), e.Candidates, e.DBScans, e.Pruned)
			snap.Entries = append(snap.Entries, e)
			if best.Strategy == "" || e.WallNS < best.WallNS {
				best = e
			}
		}
		if *planFlag && best.Strategy != "" {
			e, err := measureAuto(wl.name, q, *runs)
			if err != nil {
				return fmt.Errorf("%s/auto: %v", wl.name, err)
			}
			e.Best = best.Strategy
			e.Regret = float64(e.WallNS) / float64(best.WallNS)
			fmt.Fprintf(os.Stderr, "%-18s %-16s wall=%-12v chosen=%-16s best=%-16s regret=%.2fx\n",
				e.Workload, e.Strategy, time.Duration(e.WallNS), e.Chosen, e.Best, e.Regret)
			snap.Entries = append(snap.Entries, e)
			if e.Regret >= *planGate {
				planProblems = append(planProblems, fmt.Sprintf(
					"%s: planner chose %s at %.2fx the best measured strategy (%s), gate is %.2fx",
					e.Workload, e.Chosen, e.Regret, e.Best, *planGate))
			}
		}
	}

	var old *benchFile
	if *compareFile != "" {
		if old, err = readSnapshot(*compareFile); err != nil {
			return err
		}
	}

	if *regretFlag {
		printRegret(&snap, old)
	}

	if old != nil {
		problems := append(compare(old, &snap, *threshold), planProblems...)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "REGRESSION:", p)
		}
		if len(problems) > 0 {
			return fmt.Errorf("%d metric(s) regressed beyond %.2fx vs %s", len(problems), *threshold, *compareFile)
		}
		fmt.Fprintf(os.Stderr, "compare: ok (no metric beyond %.2fx of %s)\n", *threshold, *compareFile)
	}

	b, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

// printRegret renders the per-workload strategy-regret table from the fresh
// measurements: each strategy's wall time against the workload's best, the
// same ratio the daemon's shadow sampler publishes per query class. With a
// baseline, each row also carries the baseline's ratio and a best-strategy
// disagreement is called out — the cross-check that shadow-measured regret
// on a served workload (e.g. the fig8a cap-vs-optimized gap) reproduces
// what the committed BENCH.json snapshot recorded, and the place where a
// drifted belief (like BENCH's nojmax micro-inversion, now within noise)
// shows up as a NOTE.
func printRegret(fresh, base *benchFile) {
	baseline := map[string]entry{}
	baseBest := map[string]entry{}
	if base != nil {
		for _, e := range base.Entries {
			baseline[e.key()] = e
			if b, ok := baseBest[e.Workload]; !ok || e.WallNS < b.WallNS {
				baseBest[e.Workload] = e
			}
		}
	}
	byWL := map[string][]entry{}
	var names []string
	for _, e := range fresh.Entries {
		if len(byWL[e.Workload]) == 0 {
			names = append(names, e.Workload)
		}
		byWL[e.Workload] = append(byWL[e.Workload], e)
	}
	fmt.Fprintln(os.Stderr, "regret table (wall vs best per workload):")
	for _, name := range names {
		entries := byWL[name]
		sort.Slice(entries, func(i, j int) bool { return entries[i].WallNS < entries[j].WallNS })
		best := entries[0]
		fmt.Fprintf(os.Stderr, "  %s\n", name)
		for _, e := range entries {
			mark := " "
			if e.Strategy == best.Strategy {
				mark = "*"
			}
			line := fmt.Sprintf("   %s %-16s wall=%-12v regret %.2fx",
				mark, e.Strategy, time.Duration(e.WallNS), float64(e.WallNS)/float64(best.WallNS))
			if o, ok := baseline[e.key()]; ok {
				if ob, ok := baseBest[e.Workload]; ok && ob.WallNS > 0 {
					line += fmt.Sprintf("  (baseline %.2fx)", float64(o.WallNS)/float64(ob.WallNS))
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		if ob, ok := baseBest[name]; ok && ob.Strategy != best.Strategy {
			fmt.Fprintf(os.Stderr, "   NOTE: best strategy here is %s, baseline recorded %s\n",
				best.Strategy, ob.Strategy)
		}
	}
}

// measureAuto runs one workload point the way a strategy-auto request runs:
// profile the query (item supports), cost every strategy, decide, then
// execute the chosen plan with its Jmax cutoff applied. The
// planning time — profile included — is charged to the auto wall, so the
// recorded regret is honest about overhead, not just the pick.
func measureAuto(name string, q core.CFQ, runs int) (entry, error) {
	planStart := time.Now()
	defStrat, err := core.ParseStrategy(plan.CoreName(plan.Names()[0]))
	if err != nil {
		return entry{}, err
	}
	rep, feats, err := core.BuildExplainFeatures(q, defStrat)
	if err != nil {
		return entry{}, err
	}
	d := plan.New(plan.Options{}).Decide(feats, obsworkload.ClassKey(rep))
	planNS := time.Since(planStart).Nanoseconds()
	chosen, err := core.ParseStrategy(plan.CoreName(d.Strategy))
	if err != nil {
		return entry{}, err
	}
	q.JmaxCutoff = d.JmaxCutoff
	e, err := measure(name, q, chosen, runs)
	if err != nil {
		return e, err
	}
	e.Strategy = "auto"
	e.Chosen = chosen.String()
	e.WallNS += planNS
	return e, nil
}

// measure runs one workload point under one strategy. The work counters
// come from the last run (they are deterministic); the wall time is the
// best across runs; allocation is the heap TotalAlloc delta of the last
// run (after a forced GC, so earlier garbage is not charged).
func measure(name string, q core.CFQ, st core.Strategy, runs int) (entry, error) {
	if runs < 1 {
		runs = 1
	}
	e := entry{Workload: name, Strategy: st.String()}
	for i := 0; i < runs; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := core.Run(context.Background(), q, st)
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			return e, err
		}
		runtime.ReadMemStats(&after)
		if i == 0 || wall < e.WallNS {
			e.WallNS = wall
		}
		e.Candidates = res.Stats.CandidatesCounted
		e.Pruned = res.Stats.CandidatesPruned
		e.DBScans = res.Stats.DBScans
		e.LatticeBytes = res.Stats.LatticeBytes
		e.AllocBytes = int64(after.TotalAlloc - before.TotalAlloc)
		e.Pairs = res.PairCount
	}
	return e, nil
}

func readSnapshot(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %d, this tool writes %d", path, f.Schema, schema)
	}
	return &f, nil
}

// compare diffs fresh measurements against a baseline: any shared
// (workload, strategy) point whose metric grew beyond threshold× is a
// regression. Points present on only one side are reported to stderr but
// do not fail the gate (workload sets evolve).
func compare(old, fresh *benchFile, threshold float64) []string {
	if old.Scale != fresh.Scale || old.Seed != fresh.Seed {
		fmt.Fprintf(os.Stderr, "compare: baseline scale/seed %d/%d vs %d/%d — counter diffs are expected\n",
			old.Scale, old.Seed, fresh.Scale, fresh.Seed)
	}
	baseline := map[string]entry{}
	for _, e := range old.Entries {
		baseline[e.key()] = e
	}
	var problems []string
	for _, e := range fresh.Entries {
		o, ok := baseline[e.key()]
		if !ok {
			fmt.Fprintf(os.Stderr, "compare: %s not in baseline (skipped)\n", e.key())
			continue
		}
		check := func(metric string, oldV, newV int64) {
			if oldV <= 0 || newV <= oldV {
				return
			}
			ratio := float64(newV) / float64(oldV)
			if ratio > threshold {
				problems = append(problems, fmt.Sprintf("%s %s: %d -> %d (%.2fx)", e.key(), metric, oldV, newV, ratio))
			}
		}
		check("wall_ns", o.WallNS, e.WallNS)
		check("candidates", o.Candidates, e.Candidates)
		check("db_scans", o.DBScans, e.DBScans)
		check("lattice_bytes", o.LatticeBytes, e.LatticeBytes)
		check("alloc_bytes", o.AllocBytes, e.AllocBytes)
	}
	return problems
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, wl := range workloads {
			if wl.name == name {
				out = append(out, wl)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func selectStrategies(list string) ([]core.Strategy, error) {
	if list == "" {
		return strategies, nil
	}
	var out []core.Strategy
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, st := range strategies {
			if st.String() == name {
				out = append(out, st)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown strategy %q", name)
		}
	}
	return out, nil
}

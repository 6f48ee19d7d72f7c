package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// metric describes one reported number. BENCHMARK.json lists the same
// names, units and directions; the smoke test holds the two together.
type metric struct {
	name, unit string
	better     string // "lower" or "higher"
	// agg reduces a traced pass's samples to the reported value; nil marks
	// a per-layer metric read from cfqd's own counters over the window.
	agg func([]float64) float64
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "qps", unit: "1/s", better: "higher"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "p95_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "alloc_kb_per_req", unit: "KB", better: "lower"},
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if len(v) == 0 {
		return 0
	}
	return sum / float64(len(v))
}

// ratio is num/den, and 0 where the denominator is: a layer that did no
// work has no ratio to report.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func quantileMS(d []time.Duration, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(time.Millisecond)
	}
	return quantile(v, q)
}

// quantile interpolates linearly between the two nearest order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// perLayer lists the per-layer metrics, layer = module name. Times are
// medians over the traced sample, counts and ratios are means; a metric
// whose layer is not on a workload's path reads 0 there.
var perLayer = []metric{
	{"serve.decode_us", "us", "lower", median},
	{"serve.hit_us", "us", "lower", median},
	{"serve.encode_us", "us", "lower", median},
	{"serve.response_kb", "KB", "lower", mean},
	{"serve.mutate_ms", "ms", "lower", median},
	{"serve.result_cache_hit_ratio", "ratio", "higher", nil},
	{"serve.plan_cache_hit_ratio", "ratio", "higher", nil},
	{"serve.result_cache_evictions", "count", "lower", nil},
	{"serve.collapsed", "count", "lower", nil},
	{"serve.shed", "count", "lower", nil},
	{"serve.queue_wait_ms", "ms", "lower", nil},
	{"serve.append_p50_ms", "ms", "lower", nil},
	{"serve.append_p95_ms", "ms", "lower", nil},
	{"serve.unattributed_ms", "ms", "lower", nil},
	{"cfq.parse_us", "us", "lower", median},
	{"cfq.session_cold_ms", "ms", "lower", median},
	{"cfq.session_warm_ms", "ms", "lower", median},
	{"cfq.session_filter_ms", "ms", "lower", median},
	{"cfq.session_pairs_ms", "ms", "lower", median},
	{"cfq.lattice_hit_ratio", "ratio", "higher", nil},
	{"plan.decide_us", "us", "lower", median},
	{"plan.regret_ratio", "ratio", "lower", median},
	{"plan.regret_ratio_max", "ratio", "lower", maxOf},
	{"plan.regret_work_ratio", "ratio", "lower", median},
	{"plan.regret_work_ratio_max", "ratio", "lower", maxOf},
	{"core.run_ms.minmax", "ms", "lower", median},
	{"core.run_ms.sum", "ms", "lower", median},
	{"core.reduce_ms", "ms", "lower", median},
	{"core.jmax_ms", "ms", "lower", median},
	{"core.pairs_ms", "ms", "lower", median},
	{"core.alloc_kb_per_query", "KB", "lower", mean},
	{"core.candidates_per_query", "count", "lower", mean},
	{"core.db_scans_per_query", "count", "lower", mean},
	{"core.pruned_per_query", "count", "lower", mean},
	{"core.pair_checks_per_query", "count", "lower", mean},
	{"core.pairs_useful_ratio", "ratio", "higher", mean},
	{"mine.level1_ms", "ms", "lower", median},
	{"mine.level2_ms", "ms", "lower", median},
	{"mine.level3plus_ms", "ms", "lower", median},
	{"mine.level2_candidates", "count", "lower", mean},
	{"mine.level2_useful_ratio", "ratio", "higher", mean},
	{"mine.lattice_sets", "count", "lower", mean},
	{"mine.alloc_kb", "KB", "lower", median},
	{"store.fsyncs", "count", "lower", nil},
	{"store.fsync_ms", "ms", "lower", nil},
	{"store.wal_bytes_per_user_byte", "ratio", "lower", nil},
	{"store.compactions", "count", "lower", nil},
	{"txdb.compile_ms", "ms", "lower", median},
	{"obs.traced_overhead_ratio", "ratio", "lower", mean},
	{"obs.serve_overhead_ratio", "ratio", "lower", mean},
	{"proc.peak_rss_mb", "MB", "lower", nil},
	{"proc.gc_cycles", "count", "lower", nil},
	{"proc.gc_pause_ms", "ms", "lower", nil},
	{"client.cpu_share", "ratio", "lower", nil},
}

// report is everything one run of one workload produced.
type report struct {
	workload          string
	attempted, failed int
	firstErr          error
	samples, verified int // query latencies behind p50/p95; answers compared with the reference
	e2e, layers       map[string]float64
	traced            *traced // nil without -trace 1
}

// measure runs one workload end to end and, when asked, the traced pass.
func measure(ctx context.Context, o options, w workload, trace bool) (*report, error) {
	rep, err := runWorkload(ctx, o, w)
	if err != nil || !trace {
		return rep, err
	}
	if rep.traced, err = tracedPass(ctx, o, w); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for name, v := range rep.traced.layers {
		rep.layers[name] = v
	}
	// What the in-process layer calls do not explain: HTTP, the kernel's
	// loopback, scheduling between two busy processes.
	rep.layers["serve.unattributed_ms"] = rep.e2e["p50_ms"] - rep.traced.requestMS
	return rep, nil
}

// result is the driver's view of a run: the end-to-end metrics, or with
// -trace 1 the per-layer ones.
func (r *report) result(trace bool) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	table, values := endToEnd, r.e2e
	if trace {
		table, values = perLayer, r.layers
	}
	for _, m := range table {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed; %d query latencies; %d answers verified against Apriori+ ==\n",
		r.workload, r.attempted, r.failed, r.samples, r.verified)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	if r.traced == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, r.layers[m.name], m.unit)
	}
	fmt.Fprintf(w, "  self-time share by layer over the traced requests (spans: %s):\n", r.traced.spansFile)
	layers := make([]string, 0, len(r.traced.shares))
	for l := range r.traced.shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return r.traced.shares[layers[i]] > r.traced.shares[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "    %-8s %5.1f %%\n", l, 100*r.traced.shares[l])
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles
// (n=4, exclusive) gives: the statistic the driver accepts a bound by.
func quartileSpread(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - 4*j)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(sorted))
}

// printSpread is the noise-calibration report: per workload and metric, the
// median over the repeated runs, the quartile spread and the max-min spread.
func printSpread(w io.Writer, selected []workload, runs map[string][]*report) {
	for _, wl := range selected {
		reps := runs[wl.name]
		fmt.Fprintf(w, "\n== %s: spread over %d runs ==\n", wl.name, len(reps))
		row := func(m metric, pick func(*report) float64) {
			v := make([]float64, len(reps))
			for i, r := range reps {
				v[i] = pick(r)
			}
			sort.Float64s(v)
			med := median(v)
			fmt.Fprintf(w, "  %-30s median %14.4f %-6s quartiles %6.2f %%  max-min %6.2f %%\n",
				m.name, med, m.unit, 100*quartileSpread(v), 100*ratio(v[len(v)-1]-v[0], med))
		}
		for _, m := range endToEnd {
			row(m, func(r *report) float64 { return r.e2e[m.name] })
		}
		if reps[0].traced != nil {
			for _, m := range perLayer {
				row(m, func(r *report) float64 { return r.layers[m.name] })
			}
		}
	}
}

// Package repro's root benchmarks regenerate every table and figure of the
// paper's Section 7 (see DESIGN.md for the experiment index). Each
// benchmark runs its experiment end to end and reports the measured
// speedups as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's numbers at a laptop-friendly scale. Set
// -benchscale to change the database scale divisor (1 = the paper's
// 100,000 transactions).
package repro

import (
	"context"
	"flag"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mine"
	"repro/internal/txdb"
)

var (
	benchScale = flag.Int("benchscale", 20, "experiment scale divisor (1 = paper scale)")
	benchSeed  = flag.Int64("benchseed", 1, "experiment seed")
	benchFrac  = flag.Float64("benchsupportfrac", 0.015, "support threshold fraction")
)

func benchConfig() exp.Config {
	return exp.Config{Scale: *benchScale, Seed: *benchSeed, SupportFrac: *benchFrac}
}

// BenchmarkFig8a regenerates Figure 8(a): speedup of the quasi-succinct
// reduction over Apriori⁺ for max(S.Price) <= min(T.Price) across range
// overlaps. Reported metrics: speedup_<overlap>% (work-based).
func BenchmarkFig8a(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, ov := range res.Overlaps {
				b.ReportMetric(res.Speedups[j].Work, fmt.Sprintf("speedup_%.1f%%", ov))
			}
		}
	}
}

// BenchmarkLevelTable regenerates the §7.1 per-level a/b table at 16.6%
// overlap. Reported metrics: S/T valid-set totals vs frequent-set totals.
func BenchmarkLevelTable(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.LevelTable(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			sum := func(xs []int) (n float64) {
				for _, x := range xs {
					n += float64(x)
				}
				return
			}
			b.ReportMetric(sum(res.SValid), "S_valid")
			b.ReportMetric(sum(res.SFreq), "S_frequent")
			b.ReportMetric(sum(res.TValid), "T_valid")
			b.ReportMetric(sum(res.TFreq), "T_frequent")
		}
	}
}

// BenchmarkRangeTable regenerates the §7.1 range table (speedup at 50%
// overlap for narrowing S.Price ranges).
func BenchmarkRangeTable(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.RangeTable(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, rg := range res.Ranges {
				b.ReportMetric(res.Speedups[j].Work, fmt.Sprintf("speedup_lo%g", rg[0]))
			}
		}
	}
}

// BenchmarkFig8b regenerates Figure 8(b): CAP-only vs full optimization on
// T.Price <= 600 & S.Price >= 400 & S.Type = T.Type across Type overlaps.
func BenchmarkFig8b(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, ov := range res.Overlaps {
				b.ReportMetric(res.CAPOnly[j].Work, fmt.Sprintf("caponly_%.0f%%", ov))
				b.ReportMetric(res.Full[j].Work, fmt.Sprintf("full_%.0f%%", ov))
			}
		}
	}
}

// BenchmarkRangeTable2 regenerates the §7.2 range table (CAP-only vs full
// speedups, and their ratio, for narrowing ranges at 40% Type overlap).
func BenchmarkRangeTable2(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.RangeTable2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, row := range res.Rows {
				b.ReportMetric(res.Full[j].Work, fmt.Sprintf("full_s%g", row[0]))
				b.ReportMetric(res.Ratio[j], fmt.Sprintf("ratio_s%g", row[0]))
			}
		}
	}
}

// BenchmarkJmaxTable regenerates the §7.3 table: iterative Jmax pruning on
// sum(S.Price) <= sum(T.Price) across T-side mean prices.
func BenchmarkJmaxTable(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.JmaxTable(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, m := range res.TMeans {
				b.ReportMetric(res.Speedups[j].Work, fmt.Sprintf("speedup_mean%.0f", m))
			}
		}
	}
}

// BenchmarkJmaxAblation isolates the Vᵏ series against the static
// sum(L1ᵀ.B) bound (the DESIGN.md ablation).
func BenchmarkJmaxAblation(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.JmaxTable(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, m := range res.TMeans {
				b.ReportMetric(res.Ablation[j].Work, fmt.Sprintf("vk_vs_static_mean%.0f", m))
			}
		}
	}
}

// BenchmarkDovetailAblation compares the dovetailed Vᵏ strategy against the
// sequential alternative (T first, exact bound) on the §7.3 sum–sum
// workload: sequential prunes at least as hard but cannot share scans.
func BenchmarkDovetailAblation(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	q, err := exp.JmaxQueryForBench(benchConfig(), 400)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []core.Strategy{core.StrategyOptimized, core.StrategySequential} {
		b.Run(st.String(), func(b *testing.B) {
			var counted, scans int64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(context.Background(), q, st)
				if err != nil {
					b.Fatal(err)
				}
				counted, scans = res.Stats.CandidatesCounted, res.Stats.DBScans
			}
			b.ReportMetric(float64(counted), "counted")
			b.ReportMetric(float64(scans), "dbscans")
		})
	}
}

// --- micro-benchmarks of the mining substrate -----------------------------

// questDB memoizes the benchmark database across substrate benchmarks.
var benchDB *txdb.DB

func getBenchDB(b *testing.B) *txdb.DB {
	if benchDB == nil {
		db, err := benchConfig().QuestDB()
		if err != nil {
			b.Fatal(err)
		}
		benchDB = db
	}
	return benchDB
}

// BenchmarkAprioriMining measures the plain frequent-set substrate on the
// Quest database at a 1% threshold.
func BenchmarkAprioriMining(b *testing.B) {
	db := getBenchDB(b)
	minSup := db.Len() / 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := &mine.Stats{}
		levels, err := mine.AllFrequent(context.Background(), db, minSup, nil, nil, stats)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(stats.FrequentSets), "frequent_sets")
			_ = levels
		}
	}
}

// BenchmarkStrategies times each CFQ strategy on the Figure 8(a) 16.6%-
// overlap point, the head-to-head the paper's speedups are built from.
func BenchmarkStrategies(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy end-to-end experiment")
	}
	q, err := exp.Fig8aQuery(benchConfig(), 400, 500)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []core.Strategy{
		core.StrategyAprioriPlus, core.StrategyCAPOnly,
		core.StrategyOptimizedNoJmax, core.StrategyOptimized,
	} {
		b.Run(st.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(context.Background(), q, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

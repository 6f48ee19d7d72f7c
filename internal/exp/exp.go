// Package exp is the experiment harness that regenerates every table and
// figure of the paper's Section 7. Each experiment builds the workload the
// paper describes (transaction database, item attributes, constraint
// query), runs the relevant strategies, and reports speedups both by wall
// time (what the paper plots) and by work counters (deterministic; what the
// tests assert on).
//
// DESIGN.md carries the per-experiment index mapping each function here to
// the paper artifact it reproduces; EXPERIMENTS.md records paper-vs-measured
// values.
package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/txdb"
)

// Config controls experiment scale. Scale divides the paper's database size
// (100,000 transactions over 1000 items): Scale=1 is paper scale, the test
// suite uses larger divisors for speed. SupportFrac is the frequency
// threshold as a fraction of the transaction count (default 1%, roughly the
// paper's regime); small scaled-down databases may need a higher fraction
// to keep sampling noise out of the frequent sets.
type Config struct {
	Scale       int
	Seed        int64
	SupportFrac float64
}

// DefaultConfig is a laptop-friendly scale (10,000 transactions).
func DefaultConfig() Config { return Config{Scale: 10, Seed: 1} }

func (c Config) normalize() Config {
	if c.Scale < 1 {
		c.Scale = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SupportFrac <= 0 {
		c.SupportFrac = 0.01
	}
	return c
}

// minSup converts the support fraction to an absolute threshold over n
// transactions (at least 2).
func (c Config) minSup(n int) int {
	c = c.normalize()
	m := int(c.SupportFrac * float64(n))
	if m < 2 {
		m = 2
	}
	return m
}

// numTx returns the transaction count at this scale.
func (c Config) numTx() int { return 100000 / c.Scale }

// QuestDB generates the experiment database at the configured scale.
func (c Config) QuestDB() (*txdb.DB, error) {
	c = c.normalize()
	p := gen.Default(c.Scale)
	p.Seed = c.Seed
	return gen.Quest(p)
}

// Measurement is one strategy's cost on one workload point.
type Measurement struct {
	Strategy  core.Strategy
	Elapsed   time.Duration
	Counted   int64 // candidate sets support-counted
	SetChecks int64
	Pairs     int64
}

// buildPairs builds the pair-support table of q's database before a run is
// timed: it is the generation's once-only cost, which every later run reads,
// and charging it to whichever strategy is timed first would make a
// strategy's time depend on its order.
func buildPairs(q core.CFQ) error {
	_, err := q.DB.PairSupports(context.Background(), min(q.MinSupportS, q.MinSupportT), q.Workers)
	return err
}

// run executes a query under one strategy and snapshots its costs.
func run(q core.CFQ, st core.Strategy) (Measurement, *core.Result, error) {
	if err := buildPairs(q); err != nil {
		return Measurement{}, nil, err
	}
	start := time.Now()
	res, err := core.Run(context.Background(), q, st)
	if err != nil {
		return Measurement{}, nil, err
	}
	return Measurement{
		Strategy:  st,
		Elapsed:   time.Since(start),
		Counted:   res.Stats.CandidatesCounted,
		SetChecks: res.Stats.SetConstraintChecks,
		Pairs:     res.PairCount,
	}, res, nil
}

// Speedup is base cost over optimized cost, by both metrics.
type Speedup struct {
	Time float64 // wall-time ratio (the paper's metric)
	Work float64 // candidates-counted ratio (deterministic)
}

func speedup(base, opt Measurement) Speedup {
	s := Speedup{}
	if opt.Elapsed > 0 {
		s.Time = float64(base.Elapsed) / float64(opt.Elapsed)
	}
	if opt.Counted > 0 {
		s.Work = float64(base.Counted) / float64(opt.Counted)
	} else if base.Counted > 0 {
		s.Work = float64(base.Counted)
	} else {
		s.Work = 1
	}
	return s
}

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table (the
// format EXPERIMENTS.md uses).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row
// (RFC-4180-style quoting for cells containing commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// itemsWhere selects the items of [0, numItems) whose attribute value
// satisfies pred — the experiments' sub-domain construction.
func itemsWhere(numItems int, values []float64, pred func(float64) bool) itemset.Set {
	var items []itemset.Item
	for i := 0; i < numItems; i++ {
		if pred(values[i]) {
			items = append(items, itemset.Item(i))
		}
	}
	return itemset.New(items...)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

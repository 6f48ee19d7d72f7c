// Command experiments regenerates the tables and figures of the paper's
// Section 7 (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
//
// Usage:
//
//	experiments [-exp all|fig8a|levels|ranges|fig8b|ranges2|jmax] [-scale N] [-seed N] [-full]
//
// -scale divides the paper's database size (100,000 transactions over 1000
// items); -full is shorthand for -scale 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	var (
		which  = flag.String("exp", "all", "experiment to run: all, fig8a, levels, ranges, fig8b, ranges2, jmax, ccc, scaling, phases")
		scale  = flag.Int("scale", 10, "database scale divisor (1 = paper scale: 100k transactions)")
		seed   = flag.Int64("seed", 1, "random seed")
		frac   = flag.Float64("supportfrac", 0.01, "support threshold as a fraction of transactions")
		full   = flag.Bool("full", false, "run at paper scale (equivalent to -scale 1)")
		format = flag.String("format", "text", "output format: text, markdown, csv")
		phJSON = flag.String("phases-json", "", "also write the phases profile as JSON to this file")
	)
	flag.Parse()
	if *full {
		*scale = 1
	}
	cfg := exp.Config{Scale: *scale, Seed: *seed, SupportFrac: *frac}
	fmt.Printf("# scale 1/%d (%d transactions, 1000 items), seed %d\n\n", *scale, 100000/(*scale), *seed)

	type experiment struct {
		name string
		run  func() (*exp.Table, error)
	}
	experiments := []experiment{
		{"fig8a", func() (*exp.Table, error) { r, err := exp.Fig8a(cfg); return tbl(r, err) }},
		{"levels", func() (*exp.Table, error) { r, err := exp.LevelTable(cfg); return tbl(r, err) }},
		{"ranges", func() (*exp.Table, error) { r, err := exp.RangeTable(cfg); return tbl(r, err) }},
		{"fig8b", func() (*exp.Table, error) { r, err := exp.Fig8b(cfg); return tbl(r, err) }},
		{"ranges2", func() (*exp.Table, error) { r, err := exp.RangeTable2(cfg); return tbl(r, err) }},
		{"jmax", func() (*exp.Table, error) { r, err := exp.JmaxTable(cfg); return tbl(r, err) }},
		{"ccc", func() (*exp.Table, error) { r, err := exp.CCCTable(cfg); return tbl(r, err) }},
		{"scaling", func() (*exp.Table, error) { r, err := exp.ScalingTable(cfg); return tbl(r, err) }},
		{"phases", func() (*exp.Table, error) {
			r, err := exp.Phases(cfg)
			if err != nil {
				return nil, err
			}
			if *phJSON != "" {
				s, err := r.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*phJSON, []byte(s), 0o644); err != nil {
					return nil, err
				}
			}
			return r.PhaseTable(), nil
		}},
	}
	ran := false
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		ran = true
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", e.name, err)
			os.Exit(1)
		}
		switch *format {
		case "markdown":
			fmt.Println(out.Markdown())
		case "csv":
			fmt.Print(out.CSV())
		default:
			fmt.Println(out)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

// tbl adapts the experiment results (each carries a Table field).
func tbl(r interface{}, err error) (*exp.Table, error) {
	if err != nil {
		return nil, err
	}
	switch v := r.(type) {
	case *exp.Fig8aResult:
		return v.Table, nil
	case *exp.LevelTableResult:
		return v.Table, nil
	case *exp.RangeTableResult:
		return v.Table, nil
	case *exp.Fig8bResult:
		return v.Table, nil
	case *exp.RangeTable2Result:
		return v.Table, nil
	case *exp.JmaxResult:
		return v.Table, nil
	case *exp.CCCResult:
		return v.Table, nil
	case *exp.ScalingResult:
		return v.Table, nil
	}
	return nil, fmt.Errorf("unknown result type %T", r)
}

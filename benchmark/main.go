// Command benchmark measures a served cfqd end to end and layer by layer.
//
// Per workload it builds cmd/cfqd from the checkout, boots a fresh daemon as
// a subprocess, uploads seed-derived inputs, drives it closed-loop over HTTP
// for a fixed time, verifies sampled answers against an in-process Apriori+
// reference, and prints every metric by name and unit. With -trace 1 it also
// replays the first requests of the workload in-process, one layer call at a
// time, and reports the per-layer metrics. See README.md.
//
//	go run -C benchmark . -seed 1                      # all workloads, end to end
//	go run -C benchmark . -seed 1 -trace 1             # plus the traced pass
//	go run -C benchmark . -workload hot-repeat -repeat 5   # noise calibration
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (empty = all, one after another)")
		seed    = fs.Int64("seed", 1, "seed every input is derived from")
		seconds = fs.Float64("seconds", 15, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 = also run the in-process traced pass and report the per-layer metrics")
		repeat  = fs.Int("repeat", 1, "noise calibration: run the set this many times, with seeds seed, seed+1, ..., and print per-metric median and spread")
		strict  = fs.Bool("strict", false, "fail when the load generator used more than a quarter of the CPU")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *repeat < 1 || fs.NArg() > 0 {
		return fmt.Errorf("bad arguments")
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	p, err := locate()
	if err != nil {
		return err
	}
	o := options{paths: p, seed: *seed, seconds: *seconds,
		clients: runtime.NumCPU(), scale: 1, setups: setupRepeats, traced: tracedRequests}
	if *trace == 1 {
		// setup_s is an end-to-end metric; a traced run does not report it.
		o.setups = 1
	}
	if o.bin, err = p.buildDaemon(); err != nil {
		return err
	}

	var last *report
	runs := map[string][]*report{}
	failed := false
	for i := 0; i < *repeat; i++ {
		// Calibration varies the seed the way the driver does.
		o.seed = *seed + int64(i)
		for _, w := range selected {
			rep, err := measure(ctx, o, w, *trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rep.print(stderr)
			if share := rep.layers["client.cpu_share"]; share > maxClientShare {
				err := fmt.Errorf("%s: the load generator used %.0f%% of the CPU (limit %.0f%%), so it is part of what was measured",
					w.name, 100*share, 100*maxClientShare)
				if *strict {
					return err
				}
				fmt.Fprintln(stderr, "warning:", err)
			}
			failed = failed || rep.failed > 0
			runs[w.name] = append(runs[w.name], rep)
			last = rep
		}
	}
	if *repeat > 1 {
		printSpread(stderr, selected, runs)
	}
	// The driver's contract: one workload, one JSON object on the last line.
	if len(selected) == 1 && *repeat == 1 {
		return json.NewEncoder(stdout).Encode(last.result(*trace == 1))
	}
	if failed {
		return fmt.Errorf("operations failed; see the report above")
	}
	return nil
}

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5
	// maxClientShare is the generator-sanity limit on client.cpu_share.
	maxClientShare = 0.25
)

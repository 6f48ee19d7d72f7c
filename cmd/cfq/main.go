// Command cfq evaluates constrained frequent set queries from the command
// line. Transactions are loaded from a text file (one transaction per line,
// space-separated item ids) or generated with the built-in Quest generator;
// item attributes come from value-per-line files; constraints use the
// textual mini-language of cfq.ParseConstraint:
//
//	cfq -gen -gentx 10000 -prices prices.txt \
//	    -minsup 100 \
//	    -wheres 'range(Price, 400, 1000)' \
//	    -where2 'max(S.Price) <= min(T.Price)' \
//	    -strategy optimized -maxpairs 10 -stats
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/cfq"
	"repro/internal/gen"
	"repro/internal/obs"
)

// stringsFlag collects repeatable string flags.
type stringsFlag []string

func (s *stringsFlag) String() string     { return strings.Join(*s, "; ") }
func (s *stringsFlag) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	err := realMain()
	if err == nil {
		return
	}
	// Public API errors already carry the "cfq: " prefix; avoid doubling it.
	fmt.Fprintln(os.Stderr, "cfq:", strings.TrimPrefix(err.Error(), "cfq: "))
	// Resource exhaustion (budget, timeout, cancellation) exits 2 so
	// scripts can distinguish "over budget, partial stats printed" from
	// hard failures.
	var be *cfq.BudgetError
	if errors.As(err, &be) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		os.Exit(2)
	}
	os.Exit(1)
}

func realMain() error {
	var (
		dataFile               = flag.String("data", "", "transaction file (text format)")
		numItems               = flag.Int("items", 1000, "item domain size")
		genData                = flag.Bool("gen", false, "generate transactions with the Quest generator")
		genTx                  = flag.Int("gentx", 10000, "generated transaction count")
		seed                   = flag.Int64("seed", 1, "random seed for generation")
		priceFile              = flag.String("prices", "", "numeric 'Price' attribute file (one value per line); 'uniform' generates U[0,1000)")
		typeFile               = flag.String("types", "", "categorical 'Type' attribute file (one label per line); 'uniform:N' generates N types")
		minSup                 = flag.Int("minsup", 0, "absolute minimum support")
		minSupFrac             = flag.Float64("minsupfrac", 0.01, "minimum support as a fraction of transactions (ignored when -minsup > 0)")
		strategy               = flag.String("strategy", "optimized", "optimized, nojmax, cap, apriori, fm, sequential, auto (planner rule)")
		maxPairs               = flag.Int("maxpairs", 20, "answer pairs to print (0 = all)")
		explain                = flag.Bool("explain", false, "print the plan (ExplainReport JSON on stdout, tree on stderr) without running")
		explainAnalyze         = flag.Bool("explain-analyze", false, "run the query and print the plan annotated with actual per-constraint pruning")
		stats                  = flag.Bool("stats", false, "print work counters")
		workers                = flag.Int("workers", 0, "support-counting goroutines (0 = serial)")
		jsonOut                = flag.Bool("json", false, "emit the result as JSON")
		timeout                = flag.Duration("timeout", 0, "soft evaluation deadline (e.g. 30s); exceeded runs exit 2 with partial stats")
		budgetN                = flag.Int64("budget", 0, "max candidate sets counted before aborting with partial stats (0 = unlimited)")
		queryStr               = flag.String("query", "", "full CFQ, e.g. '{(S,T) | freq(S) >= 100 & max(S.Price) <= min(T.Price)}' (overrides -wheres/-wheret/-where2)")
		traceFlag              = flag.Bool("trace", false, "log one structured event per evaluation phase (mining levels, reduction, Jmax iterations) to stderr")
		logLevel               = flag.String("log-level", "info", "minimum level for -trace events: debug, info, warn, error")
		reportFile             = flag.String("report", "", "write the run's phase report (RunReport JSON) to this file")
		metricsAddr            = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address (e.g. localhost:8080)")
		cpuProfile             = flag.String("cpuprofile", "", "write a CPU profile (with phase / constraint-site labels) to this file")
		memProfile             = flag.String("memprofile", "", "write a heap profile to this file before exiting")
		pprofAddr              = flag.String("pprof-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		whereS, whereT, where2 stringsFlag
	)
	flag.Var(&whereS, "wheres", "1-var constraint on S (repeatable)")
	flag.Var(&whereT, "wheret", "1-var constraint on T (repeatable)")
	flag.Var(&where2, "where2", "2-var constraint (repeatable)")
	flag.Parse()

	// Profiling wants pprof goroutine labels on the spans, so any profile
	// consumer also implies a tracer.
	profiling := *cpuProfile != "" || *pprofAddr != ""
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "cfq: cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			if err := obs.WriteHeapProfile(path); err != nil {
				fmt.Fprintln(os.Stderr, "cfq: memprofile:", err)
			}
		}()
	}

	// Tracing is on when any consumer needs it: -trace (log events),
	// -report (span tree), or profiling (pprof labels). The tracer is
	// created before data loading so the load/generate phase is part of the
	// report.
	ctx := context.Background()
	var tracer *cfq.Tracer
	if *traceFlag || *reportFile != "" || profiling {
		var logger *slog.Logger
		if *traceFlag {
			lvl, err := parseLogLevel(*logLevel)
			if err != nil {
				return err
			}
			logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
		}
		tracer = cfq.NewTracer(cfq.TracerOptions{Name: "cfq", Logger: logger, PprofLabels: profiling})
		ctx = cfq.WithTracer(ctx, tracer)
	}
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, obs.NewMetricsMux()); err != nil {
				fmt.Fprintln(os.Stderr, "cfq: metrics server:", err)
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, obs.NewProfilingMux()); err != nil {
				fmt.Fprintln(os.Stderr, "cfq: pprof server:", err)
			}
		}()
	}

	// The load/generate span is structural (wall time only): dataset
	// construction does no counted mining work.
	var lsp *obs.Span
	if tracer != nil {
		name := "load"
		if *genData {
			name = "generate"
		}
		lsp = tracer.Start(name)
	}

	ds := cfq.NewDataset(*numItems)
	switch {
	case *genData:
		p := gen.Default(1)
		p.NumTransactions = *genTx
		p.NumItems = *numItems
		p.NumPatterns = *genTx / 50
		if p.NumPatterns < 10 {
			p.NumPatterns = 10
		}
		p.Seed = *seed
		db, err := gen.Quest(p)
		if err != nil {
			return err
		}
		for i := 0; i < db.Len(); i++ {
			items := make([]int, db.Transaction(i).Len())
			for j, it := range db.Transaction(i) {
				items[j] = int(it)
			}
			if err := ds.AddTransaction(items...); err != nil {
				return err
			}
		}
	case *dataFile != "":
		f, err := os.Open(*dataFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ds.ReadTransactions(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -data FILE or -gen")
	}

	if *priceFile != "" {
		var prices []float64
		if *priceFile == "uniform" {
			prices = gen.UniformPrices(*numItems, 0, 1000, *seed+1)
		} else {
			var err error
			prices, err = readFloats(*priceFile, *numItems)
			if err != nil {
				return err
			}
		}
		if err := ds.SetNumeric("Price", prices); err != nil {
			return err
		}
	}
	if *typeFile != "" {
		var labels []string
		if n, ok := strings.CutPrefix(*typeFile, "uniform:"); ok {
			k, err := strconv.Atoi(n)
			if err != nil || k < 1 {
				return fmt.Errorf("bad -types %q", *typeFile)
			}
			vals, names := gen.UniformTypes(*numItems, k, *seed+2)
			labels = make([]string, *numItems)
			for i, v := range vals {
				labels[i] = names[v]
			}
		} else {
			var err error
			labels, err = readLines(*typeFile, *numItems)
			if err != nil {
				return err
			}
		}
		if err := ds.SetCategorical("Type", labels); err != nil {
			return err
		}
	}
	if lsp != nil {
		lsp.SetAttrs(obs.Int("transactions", ds.NumTransactions()),
			obs.Int("items", ds.NumItems()))
		lsp.End(nil)
	}

	opts := runOptions{
		explain:        *explain,
		explainAnalyze: *explainAnalyze,
		strategy:       *strategy,
		stats:          *stats,
		jsonOut:        *jsonOut,
		stdout:         os.Stdout,
		stderr:         os.Stderr,
		tracer:         tracer,
		report:         *reportFile,
	}

	var q *cfq.Query
	if *queryStr != "" {
		var err error
		// Defaults apply first so freq() conjuncts can override them.
		q, err = parseFullQuery(ds, *queryStr, *minSup, *minSupFrac)
		if err != nil {
			return err
		}
		q.MaxPairs(*maxPairs).Workers(*workers)
		applyBudget(q, *timeout, *budgetN)
		return execute(ctx, q, opts)
	}
	q = cfq.NewQuery(ds).MaxPairs(*maxPairs).Workers(*workers)
	applyBudget(q, *timeout, *budgetN)
	if *minSup > 0 {
		q.MinSupport(*minSup)
	} else {
		q.MinSupportFraction(*minSupFrac)
	}
	for _, s := range whereS {
		c, err := cfq.ParseConstraint(s)
		if err != nil {
			return err
		}
		q.WhereS(c)
	}
	for _, s := range whereT {
		c, err := cfq.ParseConstraint(s)
		if err != nil {
			return err
		}
		q.WhereT(c)
	}
	for _, s := range where2 {
		c, err := cfq.ParseConstraint2(s)
		if err != nil {
			return err
		}
		q.Where2(c)
	}

	return execute(ctx, q, opts)
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", s)
}

// applyBudget attaches the -timeout / -budget limits to the query. The
// timeout is a *soft* deadline (a cfq.Budget, not a context deadline) so an
// overrun still reports the partial work counters.
func applyBudget(q *cfq.Query, timeout time.Duration, maxCandidates int64) {
	if timeout <= 0 && maxCandidates <= 0 {
		return
	}
	q.Budget(cfq.Budget{Timeout: timeout, MaxCandidates: maxCandidates})
}

// parseFullQuery applies the CLI support defaults, then lets the query
// string's freq() conjuncts override them.
func parseFullQuery(ds *cfq.Dataset, s string, minSup int, minSupFrac float64) (*cfq.Query, error) {
	q, err := cfq.ParseQuery(ds, s)
	if err != nil {
		return nil, err
	}
	// ParseQuery starts from threshold 1; re-apply defaults only where the
	// query left them untouched.
	def := cfq.NewQuery(ds)
	if minSup > 0 {
		def.MinSupport(minSup)
	} else {
		def.MinSupportFraction(minSupFrac)
	}
	q.ApplyDefaultSupports(def)
	return q, nil
}

// runOptions collects everything execute needs besides the query itself.
// Only the result (text or -json) is written to stdout; the plan, stats,
// and trace events all go to stderr so stdout stays machine-parseable.
type runOptions struct {
	explain        bool
	explainAnalyze bool
	strategy       string
	stats          bool
	jsonOut        bool
	stdout         io.Writer
	stderr         io.Writer
	tracer         *cfq.Tracer
	report         string // path for the RunReport JSON, "" = none
}

// emitJSON writes one indented JSON document to w.
func emitJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// execute runs (or explains) the query and prints the results. Stdout
// stays machine-parseable in every mode: the answer (text or -json), or
// the ExplainReport JSON for -explain / -explain-analyze; the human plan
// tree, stats, and trace events go to stderr.
func execute(ctx context.Context, q *cfq.Query, opt runOptions) error {
	if opt.stdout == nil {
		opt.stdout = os.Stdout
	}
	if opt.stderr == nil {
		opt.stderr = os.Stderr
	}
	st, err := cfq.ParseStrategy(opt.strategy)
	if err != nil {
		return err
	}
	if opt.explain {
		rep, err := q.ExplainQuery(st)
		if err != nil {
			return err
		}
		fmt.Fprint(opt.stderr, rep.Tree())
		return emitJSON(opt.stdout, rep)
	}
	var res *cfq.Result
	var rep *cfq.ExplainReport
	if opt.explainAnalyze {
		res, rep, err = q.ExplainAnalyzeContext(ctx, st)
	} else {
		res, err = q.RunContext(ctx, st)
	}
	if opt.report != "" {
		// Written even when the run failed: the tracer still holds the
		// spans recorded up to the abort (open ones are marked).
		if werr := writeReport(opt.report, opt.tracer, res); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		var be *cfq.BudgetError
		if errors.As(err, &be) {
			printStats(opt.stderr, "partial ", be.Stats)
		}
		return err
	}
	if opt.stats {
		printStats(opt.stderr, "", res.Stats)
	}
	if rep != nil {
		fmt.Fprint(opt.stderr, rep.Tree())
		if opt.jsonOut {
			// Both consumers asked for JSON: one combined document.
			return emitJSON(opt.stdout, struct {
				Explain *cfq.ExplainReport `json:"explain"`
				Result  *cfq.Result        `json:"result"`
			}{rep, res})
		}
		return emitJSON(opt.stdout, rep)
	}
	if opt.jsonOut {
		return emitJSON(opt.stdout, res)
	}

	fmt.Fprintf(opt.stdout, "valid S-sets: %d, valid T-sets: %d, answer pairs: %d\n",
		len(res.ValidS), len(res.ValidT), res.PairCount)
	for i, p := range res.Pairs {
		fmt.Fprintf(opt.stdout, "  %3d: S=%v (sup %d)  T=%v (sup %d)\n",
			i+1, p.S.Items, p.S.Support, p.T.Items, p.T.Support)
	}
	return nil
}

// writeReport writes the evaluation's RunReport as JSON. A completed run
// carries its report on the Result; an aborted one is snapshotted from
// the tracer directly.
func writeReport(path string, tracer *cfq.Tracer, res *cfq.Result) error {
	var rep *cfq.RunReport
	if res != nil && res.Report != nil {
		rep = res.Report
	} else if tracer != nil {
		rep = tracer.Report()
	}
	if rep == nil {
		return fmt.Errorf("-report: no trace recorded")
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printStats renders the work counters; prefix distinguishes partial
// (aborted-run) stats from final ones.
func printStats(w io.Writer, prefix string, s cfq.Stats) {
	fmt.Fprintf(w, "%scandidates counted: %d\n%scandidates pruned: %d\n%sitem constraint checks: %d\n%sset constraint checks: %d\n%spair checks: %d\n%sDB scans: %d\n%scheckpoints: %d\n",
		prefix, s.CandidatesCounted, prefix, s.CandidatesPruned, prefix, s.ItemConstraintChecks, prefix, s.SetConstraintChecks,
		prefix, s.PairChecks, prefix, s.DBScans, prefix, s.Checkpoints)
}

func readFloats(path string, n int) ([]float64, error) {
	lines, err := readLines(path, n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(lines))
	for i, l := range lines {
		v, err := strconv.ParseFloat(l, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func readLines(path string, n int) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		out = append(out, strings.TrimSpace(sc.Text()))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != n {
		return nil, fmt.Errorf("%s: %d lines, want %d (one per item)", path, len(out), n)
	}
	return out, nil
}

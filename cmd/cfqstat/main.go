// Command cfqstat renders workload-journal analytics offline: point it at a
// cfqd workload directory (journal-*.jsonl segments written under
// <data-dir>/workload) and it prints the per-class cluster rollups and the
// measured strategy-regret table — the same views GET /v1/workload and
// GET /v1/workload/regret serve live, but from the durable journal, so a
// daemon that has exited (or a copied-off journal) can still be analyzed.
//
//	cfqstat -dir /var/lib/cfqd/workload
//	cfqstat -dir /var/lib/cfqd/workload -verify   # enforce journal invariants
//	cfqstat -dir /var/lib/cfqd/workload -plan     # planner replay vs measurements
//
// -verify checks the journal's accounting contract: every query record's
// per-site pruning counters must sum exactly to its candidates_pruned total
// (the engine's pruning-attribution invariant, persisted). Violations are
// listed and exit nonzero.
//
// -plan replays the journal through the cost-based planner offline — no
// server needed: each class's persisted feature vector is priced by the same
// model cfqd's /v1/prepare uses, before and after folding the journal's own
// measured regret back in, and the predictions are scored against the
// shadow-measured best strategy per class. -assert-auto (implies -plan)
// additionally fails unless every class with shadowed "auto" runs shows auto
// regret within the benchmark's timing bound of the worst fixed strategy —
// the offline form of the daemon's planner smoke gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs/workload"
	"repro/internal/plan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cfqstat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cfqstat", flag.ContinueOnError)
	var (
		dir        = fs.String("dir", "", "workload journal directory (required)")
		topN       = fs.Int("top", 10, "clusters to print, busiest first (0 = all)")
		verify     = fs.Bool("verify", false, "check journal invariants (prune-site sums) and fail on violations")
		asJSON     = fs.Bool("json", false, "emit the rollups and regret table as one JSON document")
		noShad     = fs.Bool("no-shadow", false, "ignore shadow records (cluster view of user traffic only)")
		doPlan     = fs.Bool("plan", false, "replay each class's features through the cost-based planner and score predictions against shadow-measured best strategies")
		assertAuto = fs.Bool("assert-auto", false, "fail unless shadow-measured auto regret is within the timing bound of the worst fixed strategy in every class (implies -plan)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	recs, err := workload.ReadDir(*dir)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no journal records under %s", *dir)
	}
	if *noShad {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.Kind != workload.KindShadow {
				kept = append(kept, rec)
			}
		}
		recs = kept
	}

	if *verify {
		if err := verifyRecords(out, recs); err != nil {
			return err
		}
	}

	rollups := workload.Replay(recs).Rollups()
	regret := workload.FromRecords(recs).Snapshot()

	var agreements []classAgreement
	if *doPlan || *assertAuto {
		agreements = planReplay(recs, rollups, regret)
	}

	if *asJSON {
		doc := map[string]any{
			"schema":  workload.RecordSchema,
			"records": len(recs),
			"classes": rollups,
			"regret":  regret,
		}
		if agreements != nil {
			doc["plan"] = agreements
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		if *assertAuto {
			return assertAutoRegret(out, regret)
		}
		return nil
	}

	queries, shadows := 0, 0
	for _, rec := range recs {
		switch rec.Kind {
		case workload.KindShadow:
			shadows++
		case workload.KindQuery:
			queries++
		}
	}
	fmt.Fprintf(out, "journal: %d records (%d queries, %d shadow runs, %d slow requests on other endpoints) from %s\n",
		len(recs), queries, shadows, len(recs)-queries-shadows, *dir)

	fmt.Fprintf(out, "\ntop clusters (of %d classes):\n", len(rollups))
	for i, cr := range rollups {
		if *topN > 0 && i >= *topN {
			fmt.Fprintf(out, "  ... and %d more\n", len(rollups)-*topN)
			break
		}
		fmt.Fprintf(out, "  %-48s  n=%-5d err=%-3d cached=%-4d mean %8.2fms  max %8.2fms  pruned(mean) %.0f\n",
			cr.Class, cr.Count, cr.Errors, cr.Cached, cr.MeanMS, cr.MaxMS, cr.MeanPruned)
		if len(cr.Strategies) > 0 {
			names := make([]string, 0, len(cr.Strategies))
			for name := range cr.Strategies {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprint(out, "      strategies:")
			for _, name := range names {
				fmt.Fprintf(out, " %s=%d", name, cr.Strategies[name])
			}
			fmt.Fprintln(out)
		}
	}

	if shadows > 0 {
		fmt.Fprintln(out, "\nregret table (shadow-measured wall time per strategy):")
		for _, cr := range regret {
			if cr.ShadowRuns == 0 {
				continue
			}
			fmt.Fprintf(out, "  %s (%d shadow runs)\n", cr.Class, cr.ShadowRuns)
			for _, sr := range cr.Strategies {
				mark := " "
				if sr.Best {
					mark = "*"
				}
				fmt.Fprintf(out, "   %s %-12s runs=%-4d mean %8.3fms  min %8.3fms  max %8.3fms  regret %.2fx  chosen=%d\n",
					mark, sr.Strategy, sr.Runs, sr.MeanMS, sr.MinMS, sr.MaxMS, sr.Regret, sr.Chosen)
			}
		}
	}

	if agreements != nil {
		fmt.Fprintln(out, "\nplanner replay (predicted vs shadow-measured, offline):")
		for _, a := range agreements {
			line := fmt.Sprintf("  %-48s model=%-12s", a.Class, a.Predicted)
			if a.WithFeedback != "" && a.WithFeedback != a.Predicted {
				line += fmt.Sprintf(" feedback=%-12s", a.WithFeedback)
			}
			if a.MeasuredBest != "" {
				line += fmt.Sprintf(" best=%-12s", a.MeasuredBest)
				if a.PredictedRegret > 0 {
					line += fmt.Sprintf(" predicted-regret=%.2fx", a.PredictedRegret)
				}
				if a.Agree {
					line += "  AGREE"
				} else {
					line += "  DISAGREE"
				}
			} else {
				line += " (no shadow measurements for this class)"
			}
			fmt.Fprintln(out, line)
		}
	}
	if *assertAuto {
		return assertAutoRegret(out, regret)
	}
	return nil
}

// classAgreement scores one class: the strategy the static cost model
// predicts, the prediction after folding the journal's measured regret back
// in (the daemon's feedback loop, replayed offline), the shadow-measured
// best, and whether the prediction lands within noise of it.
type classAgreement struct {
	Class           string  `json:"class"`
	Predicted       string  `json:"predicted"`
	WithFeedback    string  `json:"with_feedback,omitempty"`
	MeasuredBest    string  `json:"measured_best,omitempty"`
	PredictedRegret float64 `json:"predicted_regret,omitempty"`
	Agree           bool    `json:"agree"`
}

// agreeTolerance is the measured-regret ratio under which a prediction that
// differs from the literal best strategy still counts as agreement — two
// strategies within 10% wall of each other are the same pick in practice.
const agreeTolerance = 1.1

// planReplay prices each class's persisted feature vector through the same
// cost model cfqd serves, before and after one feedback fold of the
// journal's own measured regret, and scores the static prediction against
// the shadow-measured best strategy.
func planReplay(recs []*workload.Record, rollups []workload.ClassRollup,
	regret []workload.ClassRegret) []classAgreement {
	feats := map[string]*workload.Record{}
	var classes []string
	for _, rec := range recs {
		if rec.Class == "" || rec.Features == nil {
			continue
		}
		if _, ok := feats[rec.Class]; !ok {
			feats[rec.Class] = rec
			classes = append(classes, rec.Class)
		}
	}
	sort.Strings(classes)
	measured := map[string]workload.ClassRegret{}
	for _, cr := range regret {
		measured[cr.Class] = cr
	}

	static := plan.New(plan.Options{})
	folded := plan.New(plan.Options{})
	folded.Fold(regret, rollups)

	var out []classAgreement
	for _, class := range classes {
		rec := feats[class]
		a := classAgreement{Class: class}
		a.Predicted = static.Decide(rec.Features, class).Strategy
		a.WithFeedback = folded.Decide(rec.Features, class).Strategy
		if cr, ok := measured[class]; ok && cr.ShadowRuns > 0 {
			for _, sr := range cr.Strategies {
				if sr.Best {
					a.MeasuredBest = sr.Strategy
				}
				if sr.Strategy == a.Predicted {
					a.PredictedRegret = sr.Regret
				}
			}
			a.Agree = a.Predicted == a.MeasuredBest ||
				(a.PredictedRegret > 0 && a.PredictedRegret <= agreeTolerance)
		}
		out = append(out, a)
	}
	return out
}

// autoRegretBand is the noise band of the -assert-auto gate: the timing bound
// the benchmark allows a wall-clock metric to drift by between two runs of
// the same work (BENCHMARK.json end_to_end `bound: 0.25`). Strategies that
// do identical work — every strategy on an unconstrained query — still
// measure a few percent apart, so "worse than the worst" has to mean worse
// by more than that.
const autoRegretBand = 1.25

// assertAutoRegret is the -assert-auto gate: in every class where the shadow
// sampler measured "auto", auto's regret must not exceed the worst fixed
// strategy's by more than autoRegretBand — the planner can be imperfect, but
// it must never be measurably the worst way to run a query. No measured auto
// runs at all is a failure too (an assertion over nothing proves nothing).
func assertAutoRegret(out io.Writer, regret []workload.ClassRegret) error {
	checked, failures := 0, 0
	for _, cr := range regret {
		var auto *workload.StrategyRegret
		worstFixed := 0.0
		worstName := ""
		for i := range cr.Strategies {
			sr := &cr.Strategies[i]
			if sr.Runs == 0 {
				continue
			}
			if sr.Strategy == "auto" {
				auto = sr
			} else if sr.Regret > worstFixed {
				worstFixed, worstName = sr.Regret, sr.Strategy
			}
		}
		if auto == nil || worstFixed == 0 {
			continue
		}
		checked++
		if auto.Regret > worstFixed*autoRegretBand {
			failures++
			fmt.Fprintf(out, "assert-auto: %s: auto regret %.2fx exceeds worst fixed strategy %s (%.2fx) by more than the %.2fx band\n",
				cr.Class, auto.Regret, worstName, worstFixed, autoRegretBand)
		}
	}
	if failures > 0 {
		return fmt.Errorf("assert-auto: %d class(es) where the planner is the worst measured choice", failures)
	}
	if checked == 0 {
		return fmt.Errorf("assert-auto: no class has both shadowed auto and fixed-strategy runs")
	}
	fmt.Fprintf(out, "assert-auto: ok (%d class(es), auto within %.2fx of the worst measured fixed strategy or better)\n", checked, autoRegretBand)
	return nil
}

// verifyRecords enforces the journal's accounting invariants over query
// records: prune-site counters sum to candidates_pruned, and the schema is
// one this build understands.
func verifyRecords(out io.Writer, recs []*workload.Record) error {
	violations := 0
	for i, rec := range recs {
		if rec.Schema > workload.RecordSchema {
			fmt.Fprintf(out, "verify: record %d: schema %d newer than this build (%d)\n",
				i+1, rec.Schema, workload.RecordSchema)
			violations++
			continue
		}
		if rec.Kind == workload.KindShadow || len(rec.PruneSites) == 0 {
			continue
		}
		var sum int64
		for _, n := range rec.PruneSites {
			sum += n
		}
		if sum != rec.CandidatesPruned {
			fmt.Fprintf(out, "verify: record %d (%s %s): prune sites sum %d != candidates_pruned %d\n",
				i+1, rec.QueryHash, rec.Class, sum, rec.CandidatesPruned)
			violations++
		}
	}
	if violations > 0 {
		return fmt.Errorf("verify: %d violation(s)", violations)
	}
	fmt.Fprintln(out, "verify: ok (prune-site sums match candidates_pruned on every query record)")
	return nil
}

// Command cfqstat renders workload-journal analytics offline: point it at a
// cfqd workload directory (journal-*.jsonl segments written under
// <data-dir>/workload) and it prints the per-class cluster rollups — the
// same view GET /v1/workload serves live, but from the durable journal, so
// a daemon that has exited (or a copied-off journal) can still be analyzed.
//
//	cfqstat -dir /var/lib/cfqd/workload
//	cfqstat -dir /var/lib/cfqd/workload -verify   # enforce journal invariants
//
// -verify checks the journal's accounting contract: every query record's
// per-site pruning counters must sum exactly to its candidates_pruned total
// (the engine's pruning-attribution invariant, persisted). Violations are
// listed and exit nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs/workload"
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
		dir    = fs.String("dir", "", "workload journal directory (required)")
		topN   = fs.Int("top", 10, "clusters to print, busiest first (0 = all)")
		verify = fs.Bool("verify", false, "check journal invariants (prune-site sums) and fail on violations")
		asJSON = fs.Bool("json", false, "emit the rollups as one JSON document")
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
	if *verify {
		if err := verifyRecords(out, recs); err != nil {
			return err
		}
	}

	rollups := workload.Replay(recs).Rollups()

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"schema":  workload.RecordSchema,
			"records": len(recs),
			"classes": rollups,
		})
	}

	// Lines of other kinds (the "shadow" re-runs older builds wrote) are
	// records but neither queries nor slow requests.
	queries, requests := 0, 0
	for _, rec := range recs {
		switch rec.Kind {
		case workload.KindQuery:
			queries++
		case workload.KindRequest:
			requests++
		}
	}
	fmt.Fprintf(out, "journal: %d records (%d queries, %d slow requests on other endpoints) from %s\n",
		len(recs), queries, requests, *dir)

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
		if len(rec.PruneSites) == 0 {
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

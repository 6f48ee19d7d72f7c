// Quickstart: build a small market-basket dataset by hand, ask for pairs of
// frequent itemsets where everything in S is cheaper than everything in T,
// and print the answer.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/cfq"
)

func main() {
	// Six items: three snacks and three beers, with prices.
	ds := cfq.NewDataset(6)
	if err := ds.SetNumeric("Price", []float64{2, 3, 4, 8, 12, 20}); err != nil {
		log.Fatal(err)
	}
	if err := ds.SetCategorical("Type", []string{
		"snacks", "snacks", "snacks", "beer", "beer", "beer",
	}); err != nil {
		log.Fatal(err)
	}

	// A handful of baskets: chips+pretzels with lager, nuts with stout, …
	baskets := [][]int{
		{0, 1, 3}, {0, 1, 3}, {0, 1, 4}, {0, 2, 4}, {1, 2, 5},
		{0, 1, 3, 4}, {0, 3}, {1, 4}, {2, 5}, {0, 1, 2, 3, 4, 5},
	}
	if err := ds.AddTransactions(baskets); err != nil {
		log.Fatal(err)
	}

	// The CFQ {(S, T) | freq(S) & freq(T) & max(S.Price) <= min(T.Price)}:
	// cheap frequent sets on the left, expensive ones on the right.
	// EXPLAIN ANALYZE runs it and reports the optimizer's plan with what
	// each constraint actually pruned.
	res, plan, err := cfq.NewQuery(ds).
		MinSupport(2).
		Where2(cfq.Join(cfq.Max, "Price", cfq.LE, cfq.Min, "Price")).
		ExplainAnalyze(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("found %d valid pairs (showing up to %d)\n", res.PairCount, len(res.Pairs))
	for _, p := range res.Pairs {
		fmt.Printf("  S=%v (support %d)  =>  T=%v (support %d)\n",
			p.S.Items, p.S.Support, p.T.Items, p.T.Support)
	}

	fmt.Println("\noptimizer plan:")
	fmt.Print(plan.Tree())
	fmt.Printf("\nwork: %d candidates counted, %d item-level checks, %d set-level checks\n",
		res.Stats.CandidatesCounted, res.Stats.ItemConstraintChecks, res.Stats.SetConstraintChecks)
}

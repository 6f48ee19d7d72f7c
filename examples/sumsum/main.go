// Sum–sum: the hardest constraint class of the paper,
//
//	{(S, T) | sum(S.Price) <= sum(T.Price)},
//
// is neither anti-monotone nor quasi-succinct. The optimizer attacks it
// with the naive static bound sum(S.Price) <= sum(L1ᵀ.Price) and then the
// iterative Jmax series V² ≥ V³ ≥ … (Section 5.2). This example builds a
// workload where the static bound is hopeless — many cheap frequent T items
// that never co-occur — and shows the Jmax series cutting the S lattice
// down, comparing all three strategies.
//
// Run with: go run ./examples/sumsum
package main

import (
	"fmt"
	"log"

	"repro/cfq"
)

const numItems = 74

func main() {
	ds := buildDataset()

	query := func() *cfq.Query {
		return cfq.NewQuery(ds).
			MinSupport(40).
			DomainS(seq(0, 14)...).  // the expensive clique items
			DomainT(seq(14, 74)...). // the cheap long tail
			Where2(cfq.Join(cfq.Sum, "Price", cfq.LE, cfq.Sum, "Price")).
			MaxPairs(5)
	}

	plan, err := query().ExplainQuery(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimizer plan:")
	fmt.Print(plan.Tree())
	fmt.Println()

	type row struct {
		name string
		st   cfq.Strategy
	}
	var results []*cfq.Result
	rows := []row{
		{"apriori+", cfq.AprioriPlus},
		{"static bound only", cfq.OptimizedNoJmax},
		{"static + Jmax V^k", cfq.Optimized},
	}
	fmt.Printf("%-20s  %12s  %10s  %8s\n", "strategy", "counted", "set-checks", "pairs")
	for _, r := range rows {
		res, err := query().Run(r.st)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
		fmt.Printf("%-20s  %12d  %10d  %8d\n",
			r.name, res.Stats.CandidatesCounted, res.Stats.SetConstraintChecks, res.PairCount)
	}
	for _, res := range results[1:] {
		if res.PairCount != results[0].PairCount {
			log.Fatal("strategies disagree on the answer")
		}
	}
	fmt.Printf("\nJmax pruning counted %.1fx fewer candidates than the static bound alone\n",
		float64(results[1].Stats.CandidatesCounted)/float64(results[2].Stats.CandidatesCounted))
}

// buildDataset plants a 14-item frequent clique of mid-priced items (so
// every one of its 16k subsets is frequent) against a long tail of cheap
// items that appear alone — except one frequent pair, whose sum of 40 is
// the true ceiling the Jmax series discovers.
func buildDataset() *cfq.Dataset {
	ds := cfq.NewDataset(numItems)
	prices := make([]float64, numItems)
	for i := 0; i < 14; i++ {
		prices[i] = 30 // the clique
	}
	for i := 14; i < numItems; i++ {
		prices[i] = 20 // the cheap tail
	}
	if err := ds.SetNumeric("Price", prices); err != nil {
		log.Fatal(err)
	}
	// The full clique in 50 baskets: all 2^14 subsets become frequent.
	for b := 0; b < 50; b++ {
		if err := ds.AddTransaction(seq(0, 14)...); err != nil {
			log.Fatal(err)
		}
	}
	// Each cheap item alone in 50 baskets; items 14 and 15 also co-occur,
	// forming the only frequent T-set with sum 40.
	for i := 14; i < numItems; i++ {
		for b := 0; b < 50; b++ {
			if err := ds.AddTransaction(i); err != nil {
				log.Fatal(err)
			}
		}
	}
	for b := 0; b < 50; b++ {
		if err := ds.AddTransaction(14, 15); err != nil {
			log.Fatal(err)
		}
	}
	return ds
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

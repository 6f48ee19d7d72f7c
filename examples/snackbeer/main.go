// Snack→beer: the paper's Section 2 example CFQ
//
//	{(S, T) | S.Type = {Snacks} & T.Type = {Beers} & max(S.Price) <= min(T.Price)}
//
// — pairs of frequent sets of cheaper snack items and more expensive beer
// items — run over a synthetic Quest market-basket database, comparing the
// optimized strategy against Apriori⁺.
//
// Run with: go run ./examples/snackbeer
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/cfq"
	"repro/internal/gen"
)

const numItems = 400

func main() {
	ds := buildDataset()

	query := func() *cfq.Query {
		return cfq.NewQuery(ds).
			MinSupportFraction(0.01).
			WhereS(cfq.Domain(cfq.SubsetOf, "Type", "snacks")).
			WhereT(cfq.Domain(cfq.SubsetOf, "Type", "beer")).
			Where2(cfq.Join(cfq.Max, "Price", cfq.LE, cfq.Min, "Price")).
			MaxPairs(8)
	}

	plan, err := query().ExplainQuery(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimizer plan:")
	fmt.Print(plan.Tree())

	opt, err := query().Run(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	base, err := query().Run(cfq.AprioriPlus)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nanswer: %d pairs (snack sets: %d, beer sets: %d)\n",
		opt.PairCount, len(opt.ValidS), len(opt.ValidT))
	for _, p := range opt.Pairs {
		fmt.Printf("  snacks %v (sup %d)  =>  beers %v (sup %d)\n",
			p.S.Items, p.S.Support, p.T.Items, p.T.Support)
	}

	fmt.Printf("\n            %12s  %12s\n", "optimized", "apriori+")
	fmt.Printf("counted     %12d  %12d\n", opt.Stats.CandidatesCounted, base.Stats.CandidatesCounted)
	fmt.Printf("set checks  %12d  %12d\n", opt.Stats.SetConstraintChecks, base.Stats.SetConstraintChecks)
	fmt.Printf("pair checks %12d  %12d\n", opt.Stats.PairChecks, base.Stats.PairChecks)
	if opt.PairCount != base.PairCount {
		log.Fatalf("strategies disagree: %d vs %d pairs", opt.PairCount, base.PairCount)
	}
}

// buildDataset generates a Quest basket database and labels the item domain
// with types and prices: snacks are cheap, beers more expensive, plus an
// assortment of other goods.
func buildDataset() *cfq.Dataset {
	db, err := gen.Quest(gen.QuestParams{
		NumTransactions: 5000,
		NumItems:        numItems,
		AvgTxSize:       8,
		NumPatterns:     100,
		AvgPatternSize:  4,
		Correlation:     0.5,
		CorruptionMean:  0.5,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := cfq.WrapDB(db, numItems)

	r := rand.New(rand.NewSource(7))
	types := make([]string, numItems)
	prices := make([]float64, numItems)
	for i := 0; i < numItems; i++ {
		switch i % 4 {
		case 0:
			types[i] = "snacks"
			prices[i] = 1 + r.Float64()*9 // $1–$10
		case 1:
			types[i] = "beer"
			prices[i] = 5 + r.Float64()*25 // $5–$30
		case 2:
			types[i] = "dairy"
			prices[i] = 2 + r.Float64()*8
		default:
			types[i] = "household"
			prices[i] = 3 + r.Float64()*40
		}
	}
	if err := ds.SetCategorical("Type", types); err != nil {
		log.Fatal(err)
	}
	if err := ds.SetNumeric("Price", prices); err != nil {
		log.Fatal(err)
	}
	return ds
}

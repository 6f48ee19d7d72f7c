// Cheap→expensive: the paper's introduction motivates CFQs with the query
//
//	{(S, T) | sum(S.Price) <= 100 & avg(T.Price) >= 200}
//
// ("the purchase of cheaper items leads to the purchase of more expensive
// ones") and contrasts it with the genuinely 2-variable
//
//	{(S, T) | sum(S.Price) <= avg(T.Price)}.
//
// This example runs both over the same generated database and shows how the
// optimizer treats them differently: the first is two 1-var constraints
// (one anti-monotone, one neither — handled by induced weakening + final
// check), the second induces a weaker quasi-succinct constraint.
//
// Run with: go run ./examples/cheapexpensive
package main

import (
	"fmt"
	"log"

	"repro/cfq"
	"repro/internal/gen"
)

const numItems = 500

func main() {
	ds := buildDataset()

	// Query 1: 1-var constraints only.
	q1 := cfq.NewQuery(ds).
		MinSupportFraction(0.01).
		WhereS(cfq.Aggregate(cfq.Sum, "Price", cfq.LE, 100)).
		WhereT(cfq.Aggregate(cfq.Avg, "Price", cfq.GE, 200)).
		MaxPairs(5)
	res1, err := q1.Run(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1  sum(S.Price) <= 100 & avg(T.Price) >= 200:\n")
	fmt.Printf("    %d pairs from %d cheap sets × %d expensive sets\n",
		res1.PairCount, len(res1.ValidS), len(res1.ValidT))
	for _, p := range res1.Pairs {
		fmt.Printf("    S=%v  T=%v\n", p.S.Items, p.T.Items)
	}

	// Query 2: the 2-var version, constraining the pair jointly.
	q2 := func() *cfq.Query {
		return cfq.NewQuery(ds).
			MinSupportFraction(0.01).
			Where2(cfq.Join(cfq.Sum, "Price", cfq.LE, cfq.Avg, "Price")).
			MaxPairs(5)
	}
	plan, err := q2().ExplainQuery(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ2  sum(S.Price) <= avg(T.Price) — optimizer plan:\n%s", plan.Tree())

	res2, err := q2().Run(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	base2, err := q2().Run(cfq.AprioriPlus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    %d pairs; optimized counted %d candidates, Apriori+ counted %d\n",
		res2.PairCount, res2.Stats.CandidatesCounted, base2.Stats.CandidatesCounted)
	if res2.PairCount != base2.PairCount {
		log.Fatalf("strategies disagree: %d vs %d", res2.PairCount, base2.PairCount)
	}
	for _, p := range res2.Pairs {
		fmt.Printf("    S=%v  T=%v\n", p.S.Items, p.T.Items)
	}
}

func buildDataset() *cfq.Dataset {
	db, err := gen.Quest(gen.QuestParams{
		NumTransactions: 5000,
		NumItems:        numItems,
		AvgTxSize:       8,
		NumPatterns:     120,
		AvgPatternSize:  4,
		Correlation:     0.5,
		CorruptionMean:  0.5,
		Seed:            11,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := cfq.WrapDB(db, numItems)
	// Prices spread widely so both queries are selective: a long cheap
	// tail with some expensive items.
	prices := gen.UniformPrices(numItems, 1, 400, 11)
	for i := 0; i < numItems; i += 10 {
		prices[i] += 200 // every tenth item is premium
	}
	if err := ds.SetNumeric("Price", prices); err != nil {
		log.Fatal(err)
	}
	return ds
}

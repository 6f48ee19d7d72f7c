package cfq_test

import (
	"fmt"
	"log"

	"repro/cfq"
)

// exampleDataset builds the small market-basket dataset the examples share.
func exampleDataset() *cfq.Dataset {
	ds := cfq.NewDataset(6)
	if err := ds.SetNumeric("Price", []float64{2, 3, 4, 8, 12, 20}); err != nil {
		log.Fatal(err)
	}
	if err := ds.SetCategorical("Type", []string{
		"snacks", "snacks", "snacks", "beer", "beer", "beer",
	}); err != nil {
		log.Fatal(err)
	}
	if err := ds.AddTransactions([][]int{
		{0, 1, 3}, {0, 1, 3}, {0, 1, 4}, {0, 2, 4}, {1, 2, 5},
		{0, 1, 3, 4}, {0, 3}, {1, 4}, {2, 5}, {0, 1, 2, 3, 4, 5},
	}); err != nil {
		log.Fatal(err)
	}
	return ds
}

// The basic flow: build a query with the fluent API and run it with the
// optimizer's strategy.
func ExampleQuery_Run() {
	ds := exampleDataset()
	res, err := cfq.NewQuery(ds).
		MinSupport(3).
		WhereS(cfq.Domain(cfq.SubsetOf, "Type", "snacks")).
		WhereT(cfq.Domain(cfq.SubsetOf, "Type", "beer")).
		Where2(cfq.Join(cfq.Max, "Price", cfq.LE, cfq.Min, "Price")).
		Run(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Pairs {
		fmt.Printf("%v => %v\n", p.S.Items, p.T.Items)
	}
	// Output:
	// [0] => [3]
	// [0] => [4]
	// [0] => [5]
	// [1] => [3]
	// [1] => [4]
	// [1] => [5]
	// [2] => [3]
	// [2] => [4]
	// [2] => [5]
	// [0 1] => [3]
	// [0 1] => [4]
	// [0 1] => [5]
}

// Queries can also be written in the paper's textual notation.
func ExampleParseQuery() {
	ds := exampleDataset()
	q, err := cfq.ParseQuery(ds,
		"{(S, T) | freq(S) >= 3 & freq(T) >= 3 & S.Type disjoint T.Type & max(S.Price) <= min(T.Price)}")
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.Run(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairs:", res.PairCount)
	// Output:
	// pairs: 12
}

// ExplainQuery shows how the optimizer decomposes the 2-var constraints
// without running the query.
func ExampleQuery_ExplainQuery() {
	ds := exampleDataset()
	plan, err := cfq.NewQuery(ds).
		MinSupport(3).
		Where2(
			cfq.Join(cfq.Max, "Price", cfq.LE, cfq.Min, "Price"),
			cfq.Join(cfq.Sum, "Price", cfq.LE, cfq.Sum, "Price"),
		).ExplainQuery(cfq.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Tree())
	// Output:
	// EXPLAIN (strategy: optimized)
	// query: {(S, T)} over 10 transactions, minsup(S)=3, minsup(T)=3; 0 1-var on S, 0 on T, 2 2-var
	// ├─ S,T: max(S.Price) <= min(T.Price)
	// │     class: quasi-succinct, anti-monotone
	// │     enforced at: reduction to succinct 1-var conditions after level 1, pair formation
	// └─ S,T: sum(S.Price) <= sum(T.Price)
	//       class: non-quasi-succinct
	//       enforced at: induced weaker 1-var conditions after level 1, iterative Jmax bounds (dovetailed counting), pair formation
}

// RunRules derives association rules (phase two of the architecture) from
// the valid pairs.
func ExampleQuery_RunRules() {
	ds := exampleDataset()
	rules, err := cfq.NewQuery(ds).
		MinSupport(3).
		WhereS(cfq.Domain(cfq.SubsetOf, "Type", "snacks")).
		WhereT(cfq.Domain(cfq.SubsetOf, "Type", "beer")).
		RunRules(cfq.Optimized, cfq.RuleParams{MinConfidence: 0.7})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rules {
		fmt.Printf("%v => %v conf %.2f\n", r.S, r.T, r.Confidence)
	}
	// Output:
	// [0 1] => [3] conf 0.80
	// [2] => [5] conf 0.75
	// [0] => [3] conf 0.71
}

package cfq

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mine"
)

// plainResult is Result without its methods: encoding/json marshals it by
// reflection, the reference AppendJSON is held to.
type plainResult Result

// checkResultJSON holds AppendJSON and json.Marshal(res) to the reflection
// encoder's bytes for res, and returns those bytes.
func checkResultJSON(t *testing.T, label string, res *Result) []byte {
	t.Helper()
	want, err := json.Marshal((*plainResult)(res))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := res.AppendJSON([]byte("prefix"))
	if err != nil {
		t.Fatalf("%s: AppendJSON: %v", label, err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Errorf("%s: AppendJSON differs from reflection:\n got %s\nwant %s", label, got[len("prefix"):], want)
	}
	marshaled, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", label, err)
	}
	if !bytes.Equal(marshaled, want) {
		t.Errorf("%s: json.Marshal(res) differs from reflection:\n got %s\nwant %s", label, marshaled, want)
	}
	return want
}

// referenceLevels is the conversion convertLevels replaced: every list grown
// by append and one Items slice per set.
func referenceLevels(levels [][]mine.Counted) (flat []FrequentSet, byLevel [][]FrequentSet) {
	for _, lv := range levels {
		var conv []FrequentSet
		for _, c := range lv {
			items := make([]int, c.Set.Len())
			for i, it := range c.Set {
				items[i] = int(it)
			}
			fs := FrequentSet{Items: items, Support: c.Support}
			conv = append(conv, fs)
			flat = append(flat, fs)
		}
		byLevel = append(byLevel, conv)
	}
	return flat, byLevel
}

// checkConverted runs p and holds its conversion to the reference, nil and
// empty slices told apart, then its JSON to the reflection encoder's.
func checkConverted(t *testing.T, label string, p *Prepared) {
	t.Helper()
	ctx := context.Background()
	ires, err := p.execute(ctx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	res := convertResult(ctx, ires)
	validS, levelsS := referenceLevels(ires.LevelsS)
	validT, levelsT := referenceLevels(ires.LevelsT)
	if !reflect.DeepEqual(res.ValidS, validS) || !reflect.DeepEqual(res.LevelsS, levelsS) ||
		!reflect.DeepEqual(res.ValidT, validT) || !reflect.DeepEqual(res.LevelsT, levelsT) {
		t.Errorf("%s: converted sets differ from the reference conversion", label)
	}
	// Windows of shared arrays are capped, so an append to one cannot
	// overwrite its neighbour.
	for _, levels := range [][][]FrequentSet{res.LevelsS, res.LevelsT} {
		for _, lv := range levels {
			if cap(lv) != len(lv) {
				t.Errorf("%s: a level has capacity %d beyond its %d sets", label, cap(lv), len(lv))
			}
			for _, fs := range lv {
				if cap(fs.Items) != len(fs.Items) {
					t.Errorf("%s: a set's Items has capacity %d beyond its %d items", label, cap(fs.Items), len(fs.Items))
				}
			}
		}
	}
	for i, pr := range ires.Pairs {
		if !reflect.DeepEqual(res.Pairs[i], Pair{S: validS[pr.SI], T: validT[pr.TI]}) {
			t.Fatalf("%s: pair %d differs from the sets it indexes", label, i)
		}
	}
	checkResultJSON(t, label, res)
}

// corpusDataset is internal/core's corpus world through the public API:
// n items, numTx transactions of up to five random items, a numeric Price in
// [0, 10) and a categorical Type with four labels.
func corpusDataset(t *testing.T, r *rand.Rand, n, numTx int) *Dataset {
	t.Helper()
	txs := make([][]int, numTx)
	for i := range txs {
		for m := r.Intn(6); m > 0; m-- {
			txs[i] = append(txs[i], r.Intn(n))
		}
	}
	price := make([]float64, n)
	kind := make([]string, n)
	for i := range price {
		price[i] = float64(r.Intn(10))
		kind[i] = string(rune('a' + r.Intn(4)))
	}
	ds := NewDataset(n)
	if err := ds.AddTransactions(txs); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetNumeric("Price", price); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCategorical("Type", kind); err != nil {
		t.Fatal(err)
	}
	return ds
}

// corpusQuery is internal/core's randomCFQ through the public API, plus a
// random MaxPairs.
func corpusQuery(r *rand.Rand, ds *Dataset, n int) *Query {
	q := NewQuery(ds).MinSupportS(1 + r.Intn(3)).MinSupportT(1 + r.Intn(3))
	if r.Intn(2) == 0 {
		var s, t []int
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				s = append(s, i)
			} else {
				t = append(t, i)
			}
		}
		q.DomainS(s...).DomainT(t...)
	}
	ops := []Op{LE, LT, GE, GT, EQ}
	aggs := []Agg{Min, Max, Sum, Avg}
	rels := []Rel{DisjointFrom, Intersects, SubsetOf, NotSubsetOf, EqualTo, SupersetOf}
	if r.Intn(2) == 0 {
		q.WhereS(Aggregate(aggs[r.Intn(len(aggs))], "Price", ops[r.Intn(len(ops))], float64(r.Intn(15))))
	}
	if r.Intn(2) == 0 {
		q.WhereT(Range("Price", float64(r.Intn(5)), float64(4+r.Intn(6))))
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		if r.Intn(2) == 0 {
			q.Where2(DomainJoin(rels[r.Intn(len(rels))], "Type", "Type"))
		} else {
			q.Where2(Join(aggs[r.Intn(len(aggs))], "Price", ops[r.Intn(len(ops))], aggs[r.Intn(len(aggs))], "Price"))
		}
	}
	if r.Intn(2) == 0 {
		q.MaxPairs(1 + r.Intn(8))
	}
	return q
}

// TestResultJSONMatchesReflection: Result.AppendJSON, and json.Marshal
// through MarshalJSON, write exactly the reflection encoder's bytes, and the
// converted sets are the reference conversion's — over the random corpus
// under every strategy and a Session (cold and warm), and on the edges: no
// pairs, a MaxPairs truncation, an empty domain and a traced run's Report.
func TestResultJSONMatchesReflection(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
	}
	strategies := []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, FM, Sequential, Auto}
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := corpusDataset(t, r, 7, 15+r.Intn(25))
		q := corpusQuery(r, ds, 7)
		for _, strat := range strategies {
			p, err := q.PrepareContext(context.Background(), strat)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, strat, err)
			}
			checkConverted(t, fmt.Sprintf("seed %d %v", seed, strat), p)
		}
		sess := NewSession(ds)
		for _, run := range []string{"cold", "warm"} {
			p, err := sess.Prepare(q)
			if err != nil {
				t.Fatalf("seed %d session: %v", seed, err)
			}
			checkConverted(t, fmt.Sprintf("seed %d session %s", seed, run), p)
		}
	}

	ds := marketDataset(t)
	minmax := Join(Max, "Price", LE, Min, "Price")
	run := func(label string, q *Query) []byte {
		t.Helper()
		tracer := NewTracer(TracerOptions{Name: label})
		res, err := q.RunContext(WithTracer(context.Background(), tracer), Optimized)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		traced := checkResultJSON(t, label+" traced", res)
		if !strings.Contains(string(traced), `"Report":{`) {
			t.Errorf("%s: traced run marshals no Report", label)
		}
		p, err := q.PrepareContext(context.Background(), Optimized)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkConverted(t, label, p)
		res.Report = nil
		return checkResultJSON(t, label, res)
	}

	none := run("no pairs", NewQuery(ds).MinSupport(2).Where2(minmax, Join(Min, "Price", GT, Max, "Price")))
	if !bytes.Contains(none, []byte(`"Pairs":null,"PairCount":0,`)) {
		t.Errorf("no pairs: %s", none)
	}

	q := NewQuery(ds).MinSupport(2).Where2(minmax).MaxPairs(1)
	res, err := q.Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.PairCount < 2 {
		t.Fatalf("MaxPairs 1: %d of %d pairs", len(res.Pairs), res.PairCount)
	}
	run("truncated", q)

	empty := run("empty domain", NewQuery(ds).MinSupport(2).DomainS([]int{}...).Where2(minmax))
	if !bytes.Contains(empty, []byte(`"Pairs":null,"PairCount":0,"ValidS":null,`)) {
		t.Errorf("empty domain: %s", empty)
	}

	// A caller's edits: pairs whose S or T is no longer the entry the engine
	// copied it from, an entry's items changed in place, a level that is no
	// longer a window of ValidS, and ValidT cut short under pairs that name
	// its tail. AppendJSON encodes what it cannot copy, byte for byte.
	res, err = NewQuery(ds).MinSupport(2).Where2(minmax).Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) < 3 || len(res.LevelsS) == 0 {
		t.Fatalf("edits: %d pairs, %d S levels", len(res.Pairs), len(res.LevelsS))
	}
	checkResultJSON(t, "before edits", res)
	res.Pairs[0].S = res.ValidS[len(res.ValidS)-1]
	res.Pairs[1].S = FrequentSet{Items: slices.Clone(res.Pairs[1].S.Items), Support: res.Pairs[1].S.Support}
	res.Pairs[2].T.Support++
	res.ValidS[0].Items[0] += 100
	checkResultJSON(t, "pairs replaced", res)
	res.LevelsS[0] = slices.Clone(res.LevelsS[0])
	res.LevelsS[0][0].Support += 7
	checkResultJSON(t, "level replaced", res)
	res.ValidT = res.ValidT[:len(res.ValidT)/2]
	checkResultJSON(t, "ValidT truncated", res)
	res.Pairs = res.Pairs[1:]
	checkResultJSON(t, "pairs resliced", res)
}

package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/cfq"
	"repro/internal/serve"
)

// defaultMinSupportFrac is cfqd's -minsupfrac default, which every request
// of the benchmark relies on.
const defaultMinSupportFrac = 0.01

// mirror builds the harness-side copy of a dataset.
func mirror(ds *dataset) (*cfq.Dataset, error) {
	m := cfq.NewDataset(ds.items)
	if err := m.AddTransactions(ds.txs); err != nil {
		return nil, err
	}
	if err := m.SetNumeric("Price", ds.prices); err != nil {
		return nil, err
	}
	return m, m.Compile()
}

// buildQuery parses a query text the way cfqd's handler does: the text,
// then the default 1 % support for the sides it leaves implicit.
func buildQuery(ds *cfq.Dataset, text string, maxPairs int) (*cfq.Query, error) {
	q, err := cfq.ParseQuery(ds, text)
	if err != nil {
		return nil, err
	}
	q.ApplyDefaultSupports(cfq.NewQuery(ds).MinSupportFraction(defaultMinSupportFrac))
	return q.MaxPairs(maxPairs), nil
}

// answer is the part of a cfq.Result the reference comparison reads.
type answer struct {
	Pairs     []cfq.Pair
	PairCount int64
}

func pairKeys(pairs []cfq.Pair) []string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = fmt.Sprint(p.S.Items, p.T.Items)
	}
	sort.Strings(keys)
	return keys
}

// verify recomputes every sampled answer in-process with the Apriori+
// strategy and compares pair_count and, where max_pairs did not truncate
// the answer, the sorted pair set. It runs after the window, never during
// it: the reference would take the daemon's CPU. Appends are replayed into
// the mirror in order, so each query is checked against the dataset state
// it was answered from.
func verify(p *inputs, samples []sample) (mismatches int, first error) {
	apriori, err := cfq.ParseStrategy("apriori")
	if err != nil {
		return len(samples), err
	}
	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i].req, samples[j].req
		if a.dataset != b.dataset {
			return a.dataset < b.dataset
		}
		return a.batches < b.batches
	})
	type state struct {
		ds      *cfq.Dataset
		batches int
	}
	mirrors := map[int]*state{}
	// hot-repeat asks the same text many times; the reference is computed
	// once per (dataset state, text).
	type refKey struct {
		dataset, batches int
		text             string
	}
	refs := map[refKey]*answer{}
	note := func(err error) {
		mismatches++
		if first == nil {
			first = err
		}
	}
	for _, s := range samples {
		var resp serve.QueryResponse
		var got answer
		if err := json.Unmarshal(s.body, &resp); err != nil {
			note(fmt.Errorf("decode response: %w", err))
			continue
		}
		if err := json.Unmarshal(resp.Result, &got); err != nil {
			note(fmt.Errorf("decode result: %w", err))
			continue
		}
		st := mirrors[s.req.dataset]
		if st == nil {
			m, err := mirror(p.datasets[s.req.dataset])
			if err != nil {
				note(err)
				continue
			}
			st = &state{ds: m}
			mirrors[s.req.dataset] = st
		}
		for batches := p.datasets[s.req.dataset].batches; st.batches < s.req.batches; st.batches++ {
			if err := st.ds.AddTransactions(batches[st.batches%len(batches)]); err != nil {
				note(err)
			}
		}
		truncated := int64(len(got.Pairs)) < got.PairCount
		key := refKey{s.req.dataset, s.req.batches, s.req.text}
		want := refs[key]
		if want == nil {
			limit := 0 // materialise the whole answer
			if truncated {
				limit = 1
			}
			q, err := buildQuery(st.ds, s.req.text, limit)
			if err != nil {
				note(err)
				continue
			}
			res, err := q.Run(apriori)
			if err != nil {
				note(fmt.Errorf("reference: %w", err))
				continue
			}
			want = &answer{Pairs: res.Pairs, PairCount: res.PairCount}
			refs[key] = want
		}
		if got.PairCount != want.PairCount {
			note(fmt.Errorf("%s: pair_count %d, reference %d", s.req.text, got.PairCount, want.PairCount))
			continue
		}
		if truncated {
			continue
		}
		g, w := pairKeys(got.Pairs), pairKeys(want.Pairs)
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				note(fmt.Errorf("%s: pair set differs from the reference at %s", s.req.text, g[i]))
				break
			}
		}
	}
	return mismatches, first
}

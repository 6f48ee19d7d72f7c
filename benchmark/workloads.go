package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/serve"
)

// The four workloads. Each is chosen to put one group of layers on the
// critical path and keep another off it, so that an optimisation has one
// workload that exercises its mechanism and one that bypasses it.
var workloads = []workload{
	{"explore-cold", "distinct auto-strategy queries on a wide dataset: no cache ever hits, so planner, level-wise mining and reduction/Jmax do the work", buildExploreCold},
	{"session-pairs", "distinct min/max queries on a dense dataset with the lattice cached: mining is ~0, lattice filtering, pair formation and encoding dominate", buildSessionPairs},
	{"hot-repeat", "16 repeated queries, inline and by prepared handle: every request is a result-cache hit, so only the HTTP/decode/parse/cache/journal path is timed", buildHotRepeat},
	{"append-requery", "appends beside session queries on per-client datasets: each append invalidates the lattice, so cold re-mining, WAL fsync and compaction show", buildAppendRequery},
}

type workload struct {
	name, why string
	build     func(seed int64, scale float64, clients int) *inputs
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataset is one generated input. It is uploaded to cfqd as inline
// transactions plus a numeric Price attribute and mirrored in-process for
// verification and the traced pass; cfqd never sees a seed.
//
// The two databases are fixtures: their generator seeds are constants, and
// -seed drives everything that is asked of them (query ranges, query order,
// hot-repeat's pool). The number of frequent sets of an 80-pattern Quest
// database changes 2.5x with the generator seed and another 1.3x with the
// price assignment, so a seeded database would make a run-to-run difference
// a property of the input instead of cfqd.
type dataset struct {
	name   string
	items  int
	txs    [][]int
	prices []float64
	// batches is the append stream of append-requery (nil elsewhere): batch
	// k is appended by the dataset's client in its k-th cycle.
	batches [][][]int
}

// spec is the dataset as cfqd's POST /v1/datasets takes it.
func (ds *dataset) spec() *serve.DatasetSpec {
	return &serve.DatasetSpec{Name: ds.name, Items: ds.items, Transactions: ds.txs,
		Numeric: map[string][]float64{"Price": ds.prices}}
}

// request is one operation of a client's sequence.
type request struct {
	append  bool
	path    string
	body    []byte
	dataset int // index into inputs.datasets

	// Query requests only.
	text     string
	strategy string // "" = the server's default session mode
	maxPairs int    // 0 = server default
	variant  int    // hot-repeat: index into inputs.pool, else -1
	// sample marks a query whose answer is kept and checked against the
	// Apriori+ reference after the window.
	sample bool
	// batches is how many append batches the dataset had received when the
	// query was issued (the reference replays the same prefix).
	batches int

	// Append requests only.
	batch [][]int
}

// inputs is a workload instantiated for one seed.
type inputs struct {
	datasets []*dataset
	// pool is hot-repeat's fixed query set, two variants (inline text, then
	// prepared handle) per query; set-up sends each once to fill the caches
	// and patches the handle bodies. Empty elsewhere.
	pool []request
	// warmup is the per-client prefix of the sequence sent before the window
	// and discarded.
	warmup int
	// stream returns client c's request sequence, a pure function of the
	// seed: calling it again replays the same requests.
	stream func(c int) func() request
}

const (
	formMinMax = "max(S.Price) <= min(T.Price)"
	formSum    = "sum(S.Price) <= sum(T.Price)"
	formAvg    = "avg(S.Price) <= avg(T.Price)"
)

// sampleEvery is the verification sampling stride outside hot-repeat.
const sampleEvery = 20

// querySeed gives every client its own generator, so that how many draws
// one client makes never shifts another's inputs.
func querySeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client) }

// Generator seeds of the fixture databases.
const (
	questSeed = 1
	priceSeed = 2
)

// quest generates tx Quest transactions over 1000 items with the default
// T10.I4 shape and the given number of potentially frequent patterns.
func quest(tx, patterns int) [][]int {
	p := gen.Default(1)
	p.NumTransactions = tx
	p.NumItems = numItems
	p.NumPatterns = patterns
	p.Seed = questSeed
	db, err := gen.Quest(p)
	if err != nil {
		panic(err) // parameters are constants of this file
	}
	return toInts(db.Transactions())
}

const numItems = 1000

func toInts(sets []itemset.Set) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		row := make([]int, len(s))
		for j, it := range s {
			row[j] = int(it)
		}
		out[i] = row
	}
	return out
}

// wide: few frequent sets and long scans, so mining dominates a query.
// scale is 1 except in the smoke test, which shrinks the database (patterns
// in step, so the lattice stays small) to keep a query at a few milliseconds.
func wide(scale float64) *dataset {
	return &dataset{
		name: "wide", items: numItems,
		txs:    quest(int(20000*scale), int(400*scale)),
		prices: gen.UniformPrices(numItems, 0, 1000, priceSeed),
	}
}

// dense: thousands of frequent sets at 1 %, so lattice filtering and pair
// formation dominate once the lattice is cached.
func dense(name string, extra int) *dataset {
	const n = 4000
	txs := quest(n+extra, 80)
	ds := &dataset{name: name, items: numItems, txs: txs[:n:n],
		prices: gen.UniformPrices(numItems, 0, 1000, priceSeed)}
	for rest := txs[n:]; len(rest) >= appendBatch; rest = rest[appendBatch:] {
		ds.batches = append(ds.batches, rest[:appendBatch])
	}
	return ds
}

// queryText draws one query of the template
//
//	{(S,T) | range(S.Price,a,1000) & range(T.Price,0,b) & <form>}
//
// with a ~ U[300,500] and b = a + u(1000-a), u ~ U[0.15,0.85]: the paper's
// §7 overlap sweep made continuous, so latency distributions are unimodal.
func queryText(r *rand.Rand, form string) string {
	return queryTextAt(r.Float64(), r.Float64(), form)
}

// queryTextAt is the query at position (x, y) of the unit square of (a, u).
func queryTextAt(x, y float64, form string) string {
	a := 300 + 200*x
	u := 0.15 + 0.70*y
	b := a + u*(1000-a)
	return fmt.Sprintf("{(S,T) | range(S.Price, %.3f, 1000) & range(T.Price, 0, %.3f) & %s}", a, b, form)
}

func queryRequest(ds *dataset, dsIndex int, text, strategy string, maxPairs int) request {
	body, err := json.Marshal(&serve.QueryRequest{
		Dataset: ds.name, Query: text, Strategy: strategy, MaxPairs: maxPairs})
	if err != nil {
		panic(err)
	}
	return request{path: "/v1/query", body: body, dataset: dsIndex,
		text: text, strategy: strategy, maxPairs: maxPairs, variant: -1}
}

func buildExploreCold(seed int64, scale float64, clients int) *inputs {
	ds := wide(scale)
	forms := []string{formMinMax, formSum, formAvg}
	p := &inputs{datasets: []*dataset{ds}, warmup: 4}
	p.stream = func(c int) func() request {
		r := rand.New(rand.NewSource(querySeed(seed, c)))
		i := 0
		return func() request {
			req := queryRequest(ds, 0, queryText(r, forms[i%len(forms)]), "auto", 0)
			req.sample = i >= p.warmup && (i-p.warmup)%sampleEvery == 0
			i++
			return req
		}
	}
	return p
}

func buildSessionPairs(seed int64, scale float64, clients int) *inputs {
	ds := dense("dense", 0)
	p := &inputs{datasets: []*dataset{ds}, warmup: 8}
	p.stream = func(c int) func() request {
		r := rand.New(rand.NewSource(querySeed(seed, c)))
		i := 0
		return func() request {
			req := queryRequest(ds, 0, queryText(r, formMinMax), "", 5000)
			req.sample = i >= p.warmup && (i-p.warmup)%sampleEvery == 0
			i++
			return req
		}
	}
	return p
}

// hotPool is hot-repeat's pool size, hotGrid its square root: the pool is a
// stratified sample of the query template, one query per cell of a 4x4 grid
// over (a, u) and the seed placing it inside the cell. Sixteen free draws
// would let the mean answer size, and with it every hot-repeat metric, move
// 11 % from seed to seed.
const (
	hotPool = 16
	hotGrid = 4
)

func buildHotRepeat(seed int64, scale float64, clients int) *inputs {
	ds := dense("dense", 0)
	p := &inputs{datasets: []*dataset{ds}, warmup: 200}
	r := rand.New(rand.NewSource(querySeed(seed, clients)))
	for k := 0; k < hotPool; k++ {
		x, y := (float64(k%hotGrid)+r.Float64())/hotGrid, (float64(k/hotGrid)+r.Float64())/hotGrid
		inline := queryRequest(ds, 0, queryTextAt(x, y, formMinMax), "", 0)
		inline.variant = 2 * k
		// The prepared variant's body is filled in by set-up, which learns
		// the handle from /v1/prepare.
		prepared := inline
		prepared.variant = 2*k + 1
		prepared.strategy = "prepared"
		prepared.body = nil
		p.pool = append(p.pool, inline, prepared)
	}
	p.stream = func(c int) func() request {
		r := rand.New(rand.NewSource(querySeed(seed, c)))
		seen := make([]bool, len(p.pool))
		i := 0
		return func() request {
			// Alternate inline text and prepared handle; draw the query.
			req := p.pool[2*r.Intn(hotPool)+i%2]
			if i >= p.warmup && !seen[req.variant] {
				seen[req.variant] = true
				req.sample = true
			}
			i++
			return req
		}
	}
	return p
}

const (
	appendBatch     = 10
	queriesPerCycle = 6
	// appendCycles bounds the generated append stream; a client that
	// outruns it wraps around and re-appends from the start.
	appendCycles = 600
)

func buildAppendRequery(seed int64, scale float64, clients int) *inputs {
	p := &inputs{warmup: 1 + queriesPerCycle}
	base := dense("grow", clients*appendCycles*appendBatch)
	for c := 0; c < clients; c++ {
		ds := *base
		ds.name = fmt.Sprintf("grow-%d", c)
		ds.batches = nil
		// Client c owns batches c, c+clients, ...: same base, own stream.
		for k := c; k < len(base.batches); k += clients {
			ds.batches = append(ds.batches, base.batches[k])
		}
		p.datasets = append(p.datasets, &ds)
	}
	p.stream = func(c int) func() request {
		ds := p.datasets[c]
		r := rand.New(rand.NewSource(querySeed(seed, c)))
		i, queries, batches := 0, 0, 0
		return func() request {
			defer func() { i++ }()
			if i%(1+queriesPerCycle) == 0 {
				batch := ds.batches[batches%len(ds.batches)]
				batches++
				body, err := json.Marshal(&serve.MutateRequest{Transactions: batch})
				if err != nil {
					panic(err)
				}
				return request{append: true, path: "/v1/datasets/" + ds.name + "/transactions",
					body: body, dataset: c, batch: batch, variant: -1}
			}
			req := queryRequest(ds, c, queryText(r, formMinMax), "", 0)
			req.batches = batches
			req.sample = i >= p.warmup && queries%sampleEvery == 0
			queries++
			return req
		}
	}
	return p
}

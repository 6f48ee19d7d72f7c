package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/cfq"
	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/txdb"
)

// The traced pass replays the first tracedRequests requests of client 0 in
// this process, on one goroutine, calling each layer's public function in
// the order cfqd's handler does and recording a span around every call.
// Sub-phases that no public function reaches (pairs, S:filter, reduce,
// jmax-iter-*, the mining levels inside an engine run) are read from the
// engine's own obs.Tracer report and grafted under the calling span. No file
// outside benchmark/ is edited for tracing.
const (
	tracedRequests = 64
	// Side measurements replay a prefix or a stride of the traced queries.
	hitSample      = 8 // serve.hit_us, obs.serve_overhead_ratio
	overheadSample = 6 // obs.traced_overhead_ratio
	regretStride   = 8 // plan.regret_*
	microRepeats   = 5 // serve.mutate_ms, txdb.compile_ms
	mineRepeats    = 3 // mine.*

	// cfqd defaults the in-process replay has to repeat.
	evalTimeout      = 30 * time.Second // -default-timeout
	defaultMaxPairs  = 20               // -default-maxpairs
	sessionCacheSize = 256 << 20        // -session-cache-bytes
	slowQuery        = 250 * time.Millisecond
)

// span is one harness-side span. Spans of one request share its index.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1: the request's root
	Request int     `json:"request"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"` // since the start of the pass
	EndUS   float64 `json:"end_us"`
}

// recorder keeps spans in memory; they are written out when the pass ends.
type recorder struct {
	t0      time.Time
	spans   []span
	stack   []int
	request int
}

func (r *recorder) now() float64 { return float64(time.Since(r.t0)) / float64(time.Microsecond) }

func (r *recorder) begin(name, layer string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: r.request, Name: name, Layer: layer, StartUS: r.now()})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	id := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].EndUS = r.now()
	return time.Duration((r.spans[id].EndUS - r.spans[id].StartUS) * float64(time.Microsecond))
}

// add records a span measured elsewhere, starting at the given offset.
func (r *recorder) add(parent int, name, layer string, startUS float64, d time.Duration) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: r.request, Name: name, Layer: layer,
		StartUS: startUS, EndUS: startUS + float64(d)/float64(time.Microsecond)})
	return id
}

// graft copies the children of an engine span report under a harness span.
// The report carries durations, not start times, so siblings are laid end
// to end from the parent's start; self time (span minus children) does not
// depend on where inside its parent a child is placed.
func (r *recorder) graft(parent int, children []*obs.SpanReport, sessionRun bool) {
	at := r.spans[parent].StartUS
	for _, c := range children {
		d := time.Duration(c.DurationMS * float64(time.Millisecond))
		id := r.add(parent, c.Name, engineLayer(c.Name, sessionRun), at, d)
		r.graft(id, c.Children, sessionRun)
		at = r.spans[id].EndUS
	}
}

// engineLayer names the module an engine span belongs to.
func engineLayer(name string, sessionRun bool) string {
	_, phase, sided := strings.Cut(name, ":")
	switch {
	case sided && (strings.HasPrefix(phase, "level-") || phase == "project"):
		return "mine"
	case sessionRun:
		return "cfq" // S:cache-hit, S:cache-miss, S:filter, pairs
	}
	return "core" // phase1, reduce, jmax-iter-*, finalize, pairs, cap's classify/filter/finalcheck
}

// selfShares is each layer's share of the traced time: the sum of its
// spans' self times over the sum of all request roots.
func (r *recorder) selfShares() map[string]float64 {
	childSum := make([]float64, len(r.spans))
	total := 0.0
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.EndUS - s.StartUS
		} else {
			total += s.EndUS - s.StartUS
		}
	}
	shares := map[string]float64{}
	for _, s := range r.spans {
		if self := s.EndUS - s.StartUS - childSum[s.ID]; self > 0 && total > 0 {
			shares[s.Layer] += self / total
		}
	}
	return shares
}

// series collects the samples behind each per-layer metric of the pass.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) addMS(name string, d time.Duration) {
	s.add(name, float64(d)/float64(time.Millisecond))
}
func (s series) addUS(name string, d time.Duration) {
	s.add(name, float64(d)/float64(time.Microsecond))
}

// heapAllocs reads the cumulative bytes this process has allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// traced is the result of a traced pass.
type traced struct {
	layers    map[string]float64
	shares    map[string]float64 // self-time share per layer
	requestMS float64            // median in-process time of a traced query
	spansFile string
}

// pass is the state of one traced pass.
type pass struct {
	o       options
	p       *inputs
	dir     string
	reg     *serve.Registry
	planner *plan.Planner
	rec     *recorder
	vals    series
	// requestMS is the in-process time of every traced query request.
	requestMS []float64
}

// tracedPass runs the pass for one workload.
func tracedPass(ctx context.Context, o options, w workload) (*traced, error) {
	t := &pass{o: o, p: w.build(o.seed, o.scale, o.clients), planner: plan.New(plan.Options{}), vals: series{}}
	var err error
	if t.dir, err = os.MkdirTemp(o.paths.work, "trace-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(t.dir)

	// The registry cfqd serves from: datasets, their shared sessions, and a
	// WAL with the daemon's fsync and compaction settings.
	st, _, err := store.Open(store.Options{Dir: filepath.Join(t.dir, "data"), Policy: store.SyncAlways, CompactRecords: compactRecords})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	t.reg = serve.NewRegistry(sessionCacheSize, false)
	t.reg.SetStore(st)
	for _, ds := range t.p.datasets {
		if _, err := t.reg.Create(ds.spec()); err != nil {
			return nil, err
		}
	}

	next := t.p.stream(0)
	reqs := make([]request, t.o.traced)
	var queries []request
	for i := range reqs {
		reqs[i] = next()
		if !reqs[i].append {
			queries = append(queries, reqs[i])
		}
	}

	// Result-cache hits are reachable only through the handler. hot-repeat
	// is nothing but hits, so all its traced requests are timed this way;
	// elsewhere a prefix is.
	hot := len(t.p.pool) > 0
	hitQueries := queries
	if !hot {
		hitQueries = queries[:min(hitSample, len(queries))]
	}
	hitOn, hitKB, err := t.handlerHits(hitQueries, true)
	if err != nil {
		return nil, err
	}
	hitOff, _, err := t.handlerHits(hitQueries, false)
	if err != nil {
		return nil, err
	}
	for _, h := range hitOn {
		t.vals.addUS("serve.hit_us", h)
	}
	if hot {
		// Nothing is encoded on a hit; the answer size is the cached one's.
		t.vals["serve.response_kb"] = hitKB
	}
	t.vals.add("obs.serve_overhead_ratio", ratio(quantileMS(hitOn, 0.5), quantileMS(hitOff, 0.5)))

	t.rec = &recorder{t0: time.Now()}
	for i, req := range reqs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t.rec.request = i
		switch {
		case req.append:
			err = t.traceAppend(req)
		case hot:
			err = t.traceHit(req, hitOn[len(t.requestMS)])
		default:
			err = t.traceQuery(ctx, req)
		}
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
	}
	shares := t.rec.selfShares()

	if !hot {
		if err := t.tracingOverhead(ctx, queries[:min(overheadSample, len(queries))]); err != nil {
			return nil, err
		}
		if err := t.regret(ctx, queries); err != nil {
			return nil, err
		}
	}
	if err := t.mineLevels(ctx); err != nil {
		return nil, err
	}
	if err := t.appendCosts(); err != nil {
		return nil, err
	}

	out := &traced{layers: map[string]float64{}, shares: shares, requestMS: median(t.requestMS),
		spansFile: filepath.Join(o.paths.work, "trace-"+w.name+".json")}
	for _, m := range perLayer {
		if m.agg == nil {
			continue // read from cfqd's counters over the window
		}
		out.layers[m.name] = m.agg(t.vals[m.name])
	}
	doc, err := json.Marshal(map[string]any{"workload": w.name, "seed": o.seed,
		"self_time_share": shares, "spans": t.rec.spans})
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(out.spansFile, doc, 0o644)
}

// frontEnd replays the handler's first two layer calls on a request body:
// decode, then parse + defaults + canonical form. A prepared-handle body
// carries no text and the handler does not parse it: q is nil then.
func (t *pass) frontEnd(ds *cfq.Dataset, req request) (q *cfq.Query, decode, parse time.Duration, err error) {
	body := req.body
	if req.variant >= 0 {
		body = t.p.pool[req.variant].body // with the handle fillPool learnt
	}
	start := time.Now()
	wire, err := serve.DecodeQueryRequest(body)
	decode = time.Since(start)
	if err != nil || wire.Prepared != "" {
		return nil, decode, 0, err
	}
	maxPairs := wire.MaxPairs
	if maxPairs == 0 {
		maxPairs = defaultMaxPairs
	}
	start = time.Now()
	if q, err = buildQuery(ds, wire.Query, maxPairs); err != nil {
		return nil, 0, 0, err
	}
	q.Budget(cfq.Budget{Timeout: evalTimeout})
	_ = q.Canonical()
	return q, decode, time.Since(start), nil
}

// traceHit records a hot-repeat request: the handler's measured time on a
// filled cache, with the layer calls it is known to contain replayed
// standalone on the same body as its children. The handler's self time is
// then the cache lookup, the envelope, the write and the journal append.
func (t *pass) traceHit(req request, hit time.Duration) error {
	ds, _, _, err := t.reg.Lookup(t.p.datasets[req.dataset].name)
	if err != nil {
		return err
	}
	_, decode, parse, err := t.frontEnd(ds, req)
	if err != nil {
		return err
	}
	root := t.rec.add(-1, "serve.handler", "serve", t.rec.now(), hit)
	at := t.rec.add(root, "serve.decode", "serve", t.rec.spans[root].StartUS, decode)
	t.vals.addUS("serve.decode_us", decode)
	if parse > 0 {
		t.rec.add(root, "cfq.parse", "cfq", t.rec.spans[at].EndUS, parse)
		t.vals.addUS("cfq.parse_us", parse)
	}
	t.requestMS = append(t.requestMS, float64(hit)/float64(time.Millisecond))
	return nil
}

func (t *pass) traceAppend(req request) error {
	t.rec.begin("append", "serve")
	t.rec.begin("serve.mutate", "store")
	_, err := t.reg.Mutate(t.p.datasets[req.dataset].name, req.batch)
	t.vals.addMS("serve.mutate_ms", t.rec.end())
	t.rec.end()
	return err
}

// traceQuery records one evaluated query: decode, parse, plan (strategy
// auto), the engine or session run with its grafted sub-phases, encode.
func (t *pass) traceQuery(ctx context.Context, req request) error {
	ds, sess, _, err := t.reg.Lookup(t.p.datasets[req.dataset].name)
	if err != nil {
		return err
	}
	root := t.rec.begin("request", "serve")
	q, decode, parse, err := t.frontEnd(ds, req)
	if err != nil {
		return err
	}
	at := t.rec.add(root, "serve.decode", "serve", t.rec.spans[root].StartUS, decode)
	t.rec.add(root, "cfq.parse", "cfq", t.rec.spans[at].EndUS, parse)
	t.vals.addUS("serve.decode_us", decode)
	t.vals.addUS("cfq.parse_us", parse)

	var run func(context.Context) (*cfq.Result, error)
	engine := req.strategy == "auto"
	if engine {
		t.rec.begin("plan.decide", "plan")
		prep, err := q.PrepareWith(ctx, t.planner, cfq.Auto)
		t.vals.addUS("plan.decide_us", t.rec.end())
		if err != nil {
			return err
		}
		run = prep.RunContext
	} else {
		run = func(ctx context.Context) (*cfq.Result, error) { return sess.RunContext(ctx, q) }
	}

	ectx := tracedContext(ctx)
	name, layer := "cfq.session", "cfq"
	if engine {
		name, layer = "core.run", "core"
	}
	misses := sess.CacheStats().Misses
	id := t.rec.begin(name, layer)
	allocs := heapAllocs()
	res, err := run(ectx)
	allocs = heapAllocs() - allocs
	took := t.rec.end()
	if err != nil {
		return err
	}
	t.rec.graft(id, res.Report.Root.Children, !engine)
	switch {
	case engine:
		form := "core.run_ms.sum"
		if strings.Contains(req.text, formMinMax) {
			form = "core.run_ms.minmax"
		}
		t.vals.addMS(form, took)
		t.vals.addMS("core.reduce_ms", phaseTime(res.Report, false, "reduce"))
		// Jmax's own cost: the bound bookkeeping of every dovetail round
		// (the round minus the mining levels under it) and the final
		// re-filtering with the tightest bounds.
		t.vals.addMS("core.jmax_ms", phaseTime(res.Report, true, "jmax-iter-*", "finalize"))
		t.vals.addMS("core.pairs_ms", phaseTime(res.Report, false, "pairs"))
	case sess.CacheStats().Misses > misses:
		t.vals.addMS("cfq.session_cold_ms", took)
	default:
		t.vals.addMS("cfq.session_warm_ms", took)
	}
	if !engine {
		t.vals.addMS("cfq.session_filter_ms", phaseTime(res.Report, false, "S:filter", "T:filter"))
		t.vals.addMS("cfq.session_pairs_ms", phaseTime(res.Report, false, "pairs"))
	}
	s := res.Stats
	t.vals.add("core.alloc_kb_per_query", float64(allocs)/1024)
	t.vals.add("core.candidates_per_query", float64(s.CandidatesCounted))
	t.vals.add("core.db_scans_per_query", float64(s.DBScans))
	t.vals.add("core.pruned_per_query", float64(s.CandidatesPruned))
	t.vals.add("core.pair_checks_per_query", float64(s.PairChecks))
	t.vals.add("core.pairs_useful_ratio", ratio(float64(res.PairCount), float64(s.PairChecks)))

	t.rec.begin("serve.encode", "serve")
	res.Report = nil
	data, err := json.Marshal(res)
	t.vals.addUS("serve.encode_us", t.rec.end())
	if err != nil {
		return err
	}
	t.vals.add("serve.response_kb", float64(len(data))/1024)
	t.requestMS = append(t.requestMS, float64(t.rec.end())/float64(time.Millisecond))
	return nil
}

// tracedContext is the context cfqd evaluates under with the journal and
// slow log on: every evaluation carries a tracer and a prune set.
func tracedContext(ctx context.Context) context.Context {
	return cfq.WithPruning(obs.WithTracer(ctx, obs.NewTracer(obs.Options{Name: "trace"})), cfq.NewPruneSet())
}

// phaseTime sums the time of an engine report's spans that carry one of the
// names (a trailing * matches any suffix); with self set, minus the time of
// their children.
func phaseTime(rep *obs.RunReport, self bool, names ...string) time.Duration {
	var ms float64
	rep.Walk(func(s *obs.SpanReport) {
		for _, name := range names {
			prefix, wild := strings.CutSuffix(name, "*")
			if s.Name != name && !(wild && strings.HasPrefix(s.Name, prefix)) {
				continue
			}
			ms += s.DurationMS
			for _, c := range s.Children {
				if self {
					ms -= c.DurationMS
				}
			}
		}
	})
	return time.Duration(ms * float64(time.Millisecond))
}

// handlerHits times cfqd's whole in-process handler on result-cache hits:
// a fresh serve.Server with the daemon's journal and slow log on or off,
// every distinct query sent once to fill the cache, then each timed.
func (t *pass) handlerHits(queries []request, journal bool) (hits []time.Duration, kb []float64, err error) {
	cfg := serve.Config{Workers: t.o.clients,
		Limits: serve.Limits{DefaultTimeout: evalTimeout, DefaultPairs: defaultMaxPairs}}
	if journal {
		dir, err := os.MkdirTemp(t.dir, "hits-")
		if err != nil {
			return nil, nil, err
		}
		cfg.Workload, cfg.WorkloadDir = true, filepath.Join(dir, "workload")
		cfg.SlowQuery, cfg.SlowLogDir = slowQuery, filepath.Join(dir, "slowlog")
	}
	srv := serve.NewServer(cfg)
	defer srv.Shutdown(context.Background())
	for _, ds := range t.p.datasets {
		if _, err := srv.Registry().Create(ds.spec()); err != nil {
			return nil, nil, err
		}
	}
	var took time.Duration
	call := func(path string, body []byte) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		srv.Handler().ServeHTTP(w, r)
		took = time.Since(start)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: HTTP %d: %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes(), nil
	}
	if err := t.p.fillPool(call); err != nil {
		return nil, nil, err
	}
	filled := map[string]bool{}
	for _, req := range queries {
		body := req.body
		if req.variant >= 0 {
			body = t.p.pool[req.variant].body // with the handle fillPool learnt
		} else if !filled[req.text] {
			if _, err := call(req.path, body); err != nil {
				return nil, nil, err
			}
			filled[req.text] = true
		}
		raw, err := call(req.path, body)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Contains(raw, []byte(`"cached":true`)) {
			return nil, nil, fmt.Errorf("in-process repeat of %q was not a cache hit", req.text)
		}
		hits = append(hits, took)
		kb = append(kb, float64(len(raw))/1024)
	}
	return hits, kb, nil
}

// prepare builds a request's query the way the handler does, untimed: the
// dataset's session, and for strategy auto the planner-prepared engine run.
func (t *pass) prepare(ctx context.Context, req request) (q *cfq.Query, sess *cfq.Session, prep *cfq.Prepared, err error) {
	ds, sess, _, err := t.reg.Lookup(t.p.datasets[req.dataset].name)
	if err != nil {
		return nil, nil, nil, err
	}
	if q, _, _, err = t.frontEnd(ds, req); err != nil {
		return nil, nil, nil, err
	}
	if req.strategy == "auto" {
		prep, err = q.PrepareWith(ctx, t.planner, cfq.Auto)
	}
	return q, sess, prep, err
}

// tracingOverhead runs the same queries with and without an obs.Tracer and
// PruneSet in the context, alternating, and reports the ratio of medians.
func (t *pass) tracingOverhead(ctx context.Context, queries []request) error {
	var with, without []time.Duration
	for _, req := range queries {
		q, sess, prep, err := t.prepare(ctx, req)
		if err != nil {
			return err
		}
		run := func(ctx context.Context) (*cfq.Result, error) { return sess.RunContext(ctx, q) }
		if prep != nil {
			run = prep.RunContext
		}
		for _, traced := range []bool{true, false} {
			rctx := ctx
			if traced {
				rctx = tracedContext(ctx)
			}
			start := time.Now()
			if _, err := run(rctx); err != nil {
				return err
			}
			if traced {
				with = append(with, time.Since(start))
			} else {
				without = append(without, time.Since(start))
			}
		}
	}
	t.vals.add("obs.traced_overhead_ratio", ratio(quantileMS(with, 0.5), quantileMS(without, 0.5)))
	return nil
}

// regret compares the planner's choice with every other strategy (fm, which
// refuses more than 16 frequent items, aside) on a stride of the traced
// auto queries: by wall time and by candidates counted.
func (t *pass) regret(ctx context.Context, queries []request) error {
	var strategies []cfq.Strategy
	for _, cs := range core.Strategies() {
		if s, err := cfq.ParseStrategy(plan.WireName(cs.String())); err == nil && s != cfq.FM {
			strategies = append(strategies, s)
		}
	}
	for i := 0; i < len(queries); i += regretStride {
		req := queries[i]
		if req.strategy != "auto" {
			return nil
		}
		q, _, prep, err := t.prepare(ctx, req)
		if err != nil {
			return err
		}
		var chosenMS, chosenWork, bestMS, bestWork float64
		for _, s := range strategies {
			start := time.Now()
			res, err := q.RunContext(ctx, s)
			if err != nil {
				return err
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			work := float64(res.Stats.CandidatesCounted)
			if s == prep.Strategy() {
				chosenMS, chosenWork = ms, work
			}
			if bestMS == 0 || ms < bestMS {
				bestMS = ms
			}
			if bestWork == 0 || work < bestWork {
				bestWork = work
			}
		}
		t.vals.add("plan.regret_ratio", ratio(chosenMS, bestMS))
		t.vals.add("plan.regret_work_ratio", ratio(chosenWork, bestWork))
	}
	// The _max metrics reduce the same samples with another aggregate.
	t.vals["plan.regret_ratio_max"] = t.vals["plan.regret_ratio"]
	t.vals["plan.regret_work_ratio_max"] = t.vals["plan.regret_work_ratio"]
	return nil
}

// mineLevels times mine.Levelwise.Step level by level on the workload's
// first dataset: the unconstrained lattice at the server's default support,
// which is what a cold session mines and what Apriori+ pays per side.
func (t *pass) mineLevels(ctx context.Context) error {
	ds := t.p.datasets[0]
	sets := make([]itemset.Set, len(ds.txs))
	for i, tx := range ds.txs {
		items := make([]itemset.Item, len(tx))
		for j, it := range tx {
			items[j] = itemset.Item(it)
		}
		sets[i] = itemset.New(items...)
	}
	db := txdb.New(sets)
	minSup := int(defaultMinSupportFrac*float64(len(sets)) + 0.999999) // Query.MinSupportFraction
	for rep := 0; rep < mineRepeats; rep++ {
		var stats mine.Stats
		allocs := heapAllocs()
		lw, err := mine.New(ctx, mine.Config{DB: db, MinSupport: minSup, Stats: &stats})
		if err != nil {
			return err
		}
		var level1, level2, deeper time.Duration
		total := 0
		for done := false; !done; {
			counted := stats.CandidatesCounted
			start := time.Now()
			if _, done, err = lw.Step(); err != nil {
				return err
			}
			took := time.Since(start)
			total += len(lw.LastFrequent())
			switch lw.Level() {
			case 1:
				level1 = took
			case 2:
				level2 = took
				c := float64(stats.CandidatesCounted - counted)
				t.vals.add("mine.level2_candidates", c)
				t.vals.add("mine.level2_useful_ratio", ratio(float64(len(lw.LastFrequent())), c))
			default:
				deeper += took
			}
		}
		t.vals.addMS("mine.level1_ms", level1)
		t.vals.addMS("mine.level2_ms", level2)
		t.vals.addMS("mine.level3plus_ms", deeper)
		t.vals.add("mine.lattice_sets", float64(total))
		t.vals.add("mine.alloc_kb", float64(heapAllocs()-allocs)/1024)
	}
	return nil
}

// appendCosts times one 10-transaction append at two depths: the dataset
// layer alone (AddTransactions + Compile on a harness-side copy) and the
// registry's durable Mutate (WAL write, fsync, the same recompile).
func (t *pass) appendCosts() error {
	ds := t.p.datasets[0]
	batch := func(k int) [][]int {
		if len(ds.batches) > 0 {
			return ds.batches[(len(ds.batches)-1-k)%len(ds.batches)]
		}
		return ds.txs[k*appendBatch : (k+1)*appendBatch]
	}
	m, err := mirror(ds)
	if err != nil {
		return err
	}
	for k := 0; k < microRepeats; k++ {
		start := time.Now()
		if err := m.AddTransactions(batch(k)); err != nil {
			return err
		}
		if err := m.Compile(); err != nil {
			return err
		}
		t.vals.addMS("txdb.compile_ms", time.Since(start))
	}
	for k := 0; len(t.vals["serve.mutate_ms"]) < microRepeats; k++ {
		start := time.Now()
		if _, err := t.reg.Mutate(ds.name, batch(k)); err != nil {
			return err
		}
		t.vals.addMS("serve.mutate_ms", time.Since(start))
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// options are the settings of one benchmark run.
type options struct {
	paths   paths
	bin     string // cfqd binary
	seed    int64
	seconds float64
	clients int     // closed-loop clients = cfqd workers
	scale   float64 // size of the wide dataset (1 except in the smoke test)
	setups  int     // set-up repetitions; setup_s is their median
	traced  int     // requests the traced pass replays
}

// sample is a query kept for verification with the answer cfqd gave.
type sample struct {
	req  request
	body []byte
}

// client is one closed-loop connection: it sends its next request only when
// the previous response has been read to the end.
type client struct {
	conn conn
	next func() request

	queryLat, appendLat []time.Duration
	attempted, failed   int
	userBytes           int64 // append request bodies
	samples             []sample
	firstErr            error
}

func newClient(addr string, next func() request) *client {
	return &client{conn: conn{addr: addr}, next: next}
}

// do sends one request. With record false (warm-up) nothing is kept.
func (c *client) do(req request, record bool) {
	if record {
		c.attempted++
	}
	start := time.Now()
	status, body, err := c.conn.post(req.path, req.body, req.sample && record)
	lat := time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", req.path, status)
	}
	if !record {
		if err != nil && c.firstErr == nil {
			c.firstErr = fmt.Errorf("warm-up: %w", err)
		}
		return
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
	if req.append {
		c.appendLat = append(c.appendLat, lat)
		c.userBytes += int64(len(req.body))
		return
	}
	c.queryLat = append(c.queryLat, lat)
	if req.sample {
		c.samples = append(c.samples, sample{req: req, body: body})
	}
}

// fillPool prepares hot-repeat's handles, patching them into the prepared
// variants' bodies, and sends every variant once, so that from then on each
// is a result-cache hit. post returns the body of a 200 response.
func (p *inputs) fillPool(post func(path string, body []byte) ([]byte, error)) error {
	for i := range p.pool {
		v := &p.pool[i]
		if v.strategy == "prepared" {
			raw, err := post("/v1/prepare", p.pool[i-1].body)
			if err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
			var pr serve.PrepareResponse
			if err := json.Unmarshal(raw, &pr); err != nil {
				return fmt.Errorf("prepare: %w", err)
			}
			if v.body, err = json.Marshal(&serve.QueryRequest{Prepared: pr.Handle}); err != nil {
				return err
			}
		}
		if _, err := post(v.path, v.body); err != nil {
			return fmt.Errorf("cache fill: %w", err)
		}
	}
	return nil
}

// instance is a booted daemon with a workload's inputs loaded and its
// warm-up prefix sent: the state the window starts from.
type instance struct {
	d       *daemon
	clients []*client
}

// setUp boots a fresh cfqd, uploads the datasets, prepares
// hot-repeat's handles, fills the caches and sends the warm-up prefix. Its
// wall time is one setup_s sample.
func setUp(o options, p *inputs, uploads [][]byte) (*instance, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(o.bin, o.paths.work, o.clients)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{d: d}
	fail := func(err error) (*instance, time.Duration, error) {
		in.tearDown()
		return nil, 0, err
	}
	admin := newClient(d.api, nil)
	defer admin.conn.close()
	for i, body := range uploads {
		status, _, err := admin.conn.post("/v1/datasets", body, false)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err != nil {
			return fail(fmt.Errorf("upload dataset %s: %w", p.datasets[i].name, err))
		}
	}
	err = p.fillPool(func(path string, body []byte) ([]byte, error) {
		status, kept, err := admin.conn.post(path, body, true)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d: %s", path, status, kept)
		}
		return kept, err
	})
	if err != nil {
		return fail(err)
	}
	for c := 0; c < o.clients; c++ {
		in.clients = append(in.clients, newClient(d.api, p.stream(c)))
	}
	var wg sync.WaitGroup
	for _, c := range in.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < p.warmup; i++ {
				c.do(c.next(), false)
			}
		}(c)
	}
	wg.Wait()
	for _, c := range in.clients {
		if c.firstErr != nil {
			return fail(c.firstErr)
		}
	}
	return in, time.Since(start), nil
}

func (in *instance) tearDown() error {
	for _, c := range in.clients {
		c.conn.close()
	}
	return in.d.stop()
}

// reading is everything sampled at a window boundary.
type reading struct {
	at      time.Time
	vars    *vars
	proc    procSample
	selfCPU time.Duration
}

// window drives the clients closed-loop for the given time and returns the
// readings taken at its two ends.
func (in *instance) window(ctx context.Context, seconds float64) (before, after reading, err error) {
	if before, err = in.read(ctx); err != nil {
		return before, after, err
	}
	deadline := before.at.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range in.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				c.do(c.next(), true)
			}
		}(c)
	}
	wg.Wait()
	after, err = in.read(ctx)
	return before, after, err
}

func (in *instance) read(ctx context.Context) (reading, error) {
	var r reading
	var err error
	if r.vars, err = in.d.vars(ctx); err != nil {
		return r, err
	}
	if r.proc, err = in.d.proc(); err != nil {
		return r, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return r, err
	}
	r.selfCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	r.at = time.Now()
	return r, nil
}

// runWorkload measures one workload end to end: o.setups set-ups (the last
// one is kept), one closed-loop window of o.seconds, then verification.
func runWorkload(ctx context.Context, o options, w workload) (*report, error) {
	p := w.build(o.seed, o.scale, o.clients)
	uploads := make([][]byte, len(p.datasets))
	for i, ds := range p.datasets {
		body, err := json.Marshal(ds.spec())
		if err != nil {
			return nil, err
		}
		uploads[i] = body
	}

	var in *instance
	var setupTimes []float64
	for i := 0; i < o.setups; i++ {
		if in != nil {
			if err := in.tearDown(); err != nil {
				return nil, fmt.Errorf("stop cfqd: %w", err)
			}
		}
		var took time.Duration
		var err error
		if in, took, err = setUp(o, p, uploads); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	before, after, err := in.window(ctx, o.seconds)
	if stopErr := in.tearDown(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop cfqd: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}

	out := &report{workload: w.name, e2e: map[string]float64{}, layers: map[string]float64{}}
	var queryLat, appendLat []time.Duration
	var samples []sample
	var userBytes int64
	for _, c := range in.clients {
		out.attempted += c.attempted
		out.failed += c.failed
		if out.firstErr == nil {
			out.firstErr = c.firstErr
		}
		queryLat = append(queryLat, c.queryLat...)
		appendLat = append(appendLat, c.appendLat...)
		samples = append(samples, c.samples...)
		userBytes += c.userBytes
	}
	out.samples = len(queryLat)

	// A wrong answer is a failed operation.
	mismatches, verr := verify(p, samples)
	out.verified = len(samples)
	out.failed += mismatches
	if out.firstErr == nil {
		out.firstErr = verr
	}

	ok := float64(len(queryLat) + len(appendLat))
	if ok == 0 {
		return out, fmt.Errorf("no operation succeeded: %v", out.firstErr)
	}
	elapsed := after.at.Sub(before.at).Seconds()
	daemonCPU := after.proc.cpu - before.proc.cpu
	selfCPU := after.selfCPU - before.selfCPU
	out.e2e["setup_s"] = median(setupTimes)
	out.e2e["qps"] = ok / elapsed
	out.e2e["p50_ms"] = quantileMS(queryLat, 0.50)
	out.e2e["p95_ms"] = quantileMS(queryLat, 0.95)
	out.e2e["cpu_ms_per_req"] = float64(daemonCPU) / float64(time.Millisecond) / ok
	out.e2e["alloc_kb_per_req"] = float64(after.vars.Memstats.TotalAlloc-before.vars.Memstats.TotalAlloc) / 1024 / ok

	delta := func(name string) float64 { return after.vars.counter(name) - before.vars.counter(name) }
	hits, misses := delta("server_result_cache_hits_total"), delta("server_result_cache_misses_total")
	planHits, planMisses := delta("plan_cache_hits_total"), delta("plan_cache_misses_total")
	latHits, latMisses := delta("session_cache_hits_total"), delta("session_cache_misses_total")
	waitN0, waitMS0 := before.vars.histogram("server_queue_wait_ms")
	waitN1, waitMS1 := after.vars.histogram("server_queue_wait_ms")
	_, fsyncMS0 := before.vars.histogram("store_fsync_duration_ms")
	_, fsyncMS1 := after.vars.histogram("store_fsync_duration_ms")
	l := out.layers
	l["serve.result_cache_hit_ratio"] = ratio(hits, hits+misses)
	l["serve.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMisses)
	l["serve.result_cache_evictions"] = delta("server_result_cache_evictions_total")
	l["serve.collapsed"] = delta("server_collapsed_requests_total")
	l["serve.shed"] = delta("server_shed_total")
	l["serve.queue_wait_ms"] = ratio(waitMS1-waitMS0, waitN1-waitN0)
	l["serve.append_p50_ms"] = quantileMS(appendLat, 0.50)
	l["serve.append_p95_ms"] = quantileMS(appendLat, 0.95)
	l["cfq.lattice_hit_ratio"] = ratio(latHits, latHits+latMisses)
	l["store.fsyncs"] = delta("store_fsyncs_total")
	l["store.fsync_ms"] = fsyncMS1 - fsyncMS0
	l["store.wal_bytes_per_user_byte"] = ratio(delta("store_wal_bytes_total"), float64(userBytes))
	l["store.compactions"] = delta("store_compactions_total")
	l["proc.peak_rss_mb"] = float64(after.proc.peakRSSKB) / 1024
	l["proc.gc_cycles"] = float64(after.vars.Memstats.NumGC - before.vars.Memstats.NumGC)
	l["proc.gc_pause_ms"] = float64(after.vars.Memstats.PauseTotalNs-before.vars.Memstats.PauseTotalNs) / 1e6
	l["client.cpu_share"] = ratio(float64(selfCPU), float64(selfCPU+daemonCPU))
	return out, nil
}

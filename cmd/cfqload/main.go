// Command cfqload is a closed-loop load generator for cfqd: N concurrent
// clients each issue a fixed number of query requests back-to-back (the
// next request leaves when the previous response lands), and the run
// reports throughput, status-code mix, result-cache hit counts, and
// latency percentiles. Closed-loop load is the right shape for measuring
// an admission-controlled server: offered load tracks completed load, so
// the 429 shed rate and the latency knee are visible separately.
//
// Shed (429) and unavailable (503) responses are retried with jittered
// exponential backoff honoring the server's Retry-After hint, and
// -wait-ready polls /readyz before the run — so a daemon still replaying
// its durable store at boot is waited for, not counted as errors.
//
// -strategy forwards a strategy on every request ("auto" exercises the
// server's planner); -prepare instead plans once via /v1/prepare
// and drives /v1/query by handle, re-preparing when a mid-run dataset
// mutation invalidates the handle with 409 stale_generation.
//
//	cfqload -addr localhost:8344 -create -clients 8 -requests 50 \
//	        -query '{(S,T) | freq(S) >= 20 & max(S.Price) <= min(T.Price)}'
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cfq"
	"repro/internal/obs/telemetry"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cfqload:", err)
		os.Exit(1)
	}
}

// outcome is one request's observation. latency covers the full closed-loop
// exchange including backoff sleeps and retried attempts; retries counts the
// extra attempts this request needed.
type outcome struct {
	status  int
	cached  bool
	retries int
	latency time.Duration
	traceID string
	// class is the admission class the request was sent under; degraded
	// marks sheds the server issued while browned out (memory pressure);
	// missingRA counts 429/503 attempts that carried no retry hint at all
	// (header or body) — the server contract says there should be none.
	class     string
	degraded  bool
	missingRA int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cfqload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "localhost:8344", "cfqd API address")
		dataset     = fs.String("dataset", "load", "dataset name to query")
		create      = fs.Bool("create", false, "create the dataset first (Quest generator + uniform prices)")
		genTx       = fs.Int("gen-tx", 2000, "generated transactions for -create")
		genItems    = fs.Int("gen-items", 50, "item domain size for -create")
		genSeed     = fs.Int64("gen-seed", 1, "generator seed for -create")
		query       = fs.String("query", "{(S,T) | freq(S) & freq(T)}", "CFQ text to issue")
		strategy    = fs.String("strategy", "", "strategy each request carries (e.g. auto for the planner); empty = server default")
		prepareMode = fs.Bool("prepare", false, "plan once via /v1/prepare and execute by handle, re-preparing on 409 stale_generation")
		minSup      = fs.Int("minsup", 0, "absolute minimum support (0 = server default)")
		clients     = fs.Int("clients", 8, "concurrent closed-loop clients")
		requests    = fs.Int("requests", 50, "requests per client")
		explainEach = fs.Int("explain-every", 0, "send every Nth request to /v1/explain instead (0 = never)")
		budgetN     = fs.Int64("budget", 0, "per-request candidate budget (exercises 422 partial-stats responses)")
		timeoutMS   = fs.Int64("timeout-ms", 0, "per-request soft deadline override")
		noCache     = fs.Bool("no-cache", false, "bypass the server result cache")
		priorities  = fs.String("priority", "", "comma-separated admission classes cycled across clients (interactive, batch); empty = endpoint default")
		compareAddr = fs.String("compare-addr", "", "after the run, issue the query uncached to this second cfqd and require byte-identical answers")
		retries     = fs.Int("retries", 3, "max extra attempts per request on 429/503 (0 = never retry)")
		retryBase   = fs.Duration("retry-base", 25*time.Millisecond, "base of the jittered exponential backoff")
		retryCap    = fs.Duration("retry-cap", 2*time.Second, "upper bound on a single backoff sleep")
		waitReady   = fs.Duration("wait-ready", 0, "poll the server's /readyz for up to this long before loading (0 = don't)")
		slowMS      = fs.Int64("slow-ms", 0, "report requests slower than this with their trace ids (0 = don't)")
		workloadRep = fs.Bool("workload", false, "fetch GET /v1/workload after the run and print the rollups")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var classes []string
	if *priorities != "" {
		for _, c := range strings.Split(*priorities, ",") {
			c = strings.TrimSpace(c)
			if c != "interactive" && c != "batch" {
				return fmt.Errorf("bad -priority class %q (want interactive or batch)", c)
			}
			classes = append(classes, c)
		}
	}
	// The label each client reports under when -priority is unset: the
	// endpoint's default class (prepared replays admit as batch).
	defaultClass := "interactive"
	if *prepareMode {
		defaultClass = "batch"
	}

	base := "http://" + *addr
	hc := &http.Client{Timeout: 2 * time.Minute}
	pol := retryPolicy{max: *retries, base: *retryBase, cap: *retryCap}

	if *waitReady > 0 {
		if err := awaitReady(hc, base, *waitReady); err != nil {
			return err
		}
	}

	if *create {
		spec := serve.DatasetSpec{
			Name: *dataset,
			Gen: &serve.GenSpec{
				Transactions:  *genTx,
				Items:         *genItems,
				Seed:          *genSeed,
				UniformPrices: true,
			},
		}
		status, _, _, _, err := pol.post(hc, base+"/v1/datasets", spec, telemetry.MintTrace().Traceparent())
		if err != nil {
			return err
		}
		// Conflict means a previous run already created it — fine for a
		// repeatable benchmark.
		if status != http.StatusCreated && status != http.StatusConflict {
			return fmt.Errorf("create dataset: status %d", status)
		}
	}

	req := serve.QueryRequest{
		Dataset:    *dataset,
		Query:      *query,
		Strategy:   *strategy,
		MinSupport: *minSup,
		TimeoutMS:  *timeoutMS,
		NoCache:    *noCache,
	}
	if *budgetN > 0 {
		req.Budget = &serve.BudgetSpec{MaxCandidates: *budgetN}
	}

	// Prepared mode: plan once up front, then drive /v1/query by handle. A
	// 409 stale_generation mid-run (the dataset mutated) re-prepares and
	// retries — the closed-loop client's version of the re-prepare protocol.
	var sharedHandle string
	var repreps atomic.Int64
	if *prepareMode {
		if *explainEach > 0 {
			return fmt.Errorf("-prepare is incompatible with -explain-every (handles execute on /v1/query only)")
		}
		h, strat, err := prepareHandle(hc, pol, base, req)
		if err != nil {
			return err
		}
		sharedHandle = h
		fmt.Fprintf(out, "prepared: handle %s strategy %s\n", h, strat)
	}

	results := make([][]outcome, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			handle := sharedHandle
			class := defaultClass
			var override string
			if len(classes) > 0 {
				class = classes[c%len(classes)]
				override = class
			}
			results[c] = make([]outcome, 0, *requests)
			for i := 0; i < *requests; i++ {
				url := base + "/v1/query"
				if *explainEach > 0 && (i+1)%*explainEach == 0 {
					url = base + "/v1/explain"
				}
				body := req
				body.Priority = override
				if *prepareMode {
					body = serve.QueryRequest{Prepared: handle, TimeoutMS: *timeoutMS, NoCache: *noCache, Priority: override}
				}
				// One trace per logical request, shared across retried
				// attempts, so the server-side spans of every attempt
				// join under a single trace id.
				tc := telemetry.MintTrace()
				t0 := time.Now()
				status, rbody, tries, missing, err := pol.post(hc, url, body, tc.Traceparent())
				if *prepareMode && err == nil && status == http.StatusConflict {
					if h, _, perr := prepareHandle(hc, pol, base, req); perr == nil {
						handle = h
						repreps.Add(1)
						body = serve.QueryRequest{Prepared: handle, TimeoutMS: *timeoutMS, NoCache: *noCache, Priority: override}
						var m2 int
						status, rbody, tries, m2, err = pol.post(hc, url, body, tc.Traceparent())
						missing += m2
					}
				}
				lat := time.Since(t0)
				o := outcome{status: status, retries: tries, latency: lat, traceID: tc.TraceID, class: class, missingRA: missing}
				if err != nil {
					o.status = -1
					results[c] = append(results[c], o)
					continue
				}
				switch {
				case status == http.StatusOK:
					var resp serve.QueryResponse
					if json.Unmarshal(rbody, &resp) == nil {
						o.cached = resp.Cached
					}
				case status == http.StatusTooManyRequests:
					var er serve.ErrorResponse
					if json.Unmarshal(rbody, &er) == nil && er.Error != nil {
						o.degraded = er.Error.DegradationLevel > 0
					}
				}
				results[c] = append(results[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(out, results, elapsed, time.Duration(*slowMS)*time.Millisecond)
	if *prepareMode && repreps.Load() > 0 {
		fmt.Fprintf(out, "  re-prepared %d time(s) after 409 stale_generation\n", repreps.Load())
	}
	if *workloadRep {
		if err := reportWorkload(out, hc, base); err != nil {
			return fmt.Errorf("workload report: %w", err)
		}
	}
	if *compareAddr != "" {
		if err := compareAnswers(hc, pol, base, "http://"+*compareAddr, req); err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		fmt.Fprintf(out, "compare: answers byte-identical across %s and %s\n", *addr, *compareAddr)
	}
	return nil
}

// compareAnswers issues the run's query — uncached, so both sides evaluate
// fresh — against two daemons and requires the marshaled answers to match
// byte for byte. The post-storm correctness check: a server that just shed,
// browned out, and recovered must answer exactly like an untouched replica.
// The execution-stats block is stripped before comparing: scan counts and
// lattice bytes legitimately differ with each server's session history,
// while the answer itself may not.
func compareAnswers(hc *http.Client, pol retryPolicy, baseA, baseB string, req serve.QueryRequest) error {
	req.Prepared = ""
	req.NoCache = true
	req.Priority = ""
	fetch := func(base string) (json.RawMessage, error) {
		status, body, _, _, err := pol.post(hc, base+"/v1/query", req, telemetry.MintTrace().Traceparent())
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", base, status, body)
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("%s: %w", base, err)
		}
		var res cfq.Result
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", base, err)
		}
		res.Stats = cfq.Stats{}
		return json.Marshal(&res)
	}
	a, err := fetch(baseA)
	if err != nil {
		return err
	}
	b, err := fetch(baseB)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("answers differ: %d bytes vs %d bytes", len(a), len(b))
	}
	return nil
}

// prepareHandle plans the request once through POST /v1/prepare and returns
// the wire handle plus the strategy the planner resolved.
func prepareHandle(hc *http.Client, pol retryPolicy, base string, req serve.QueryRequest) (string, string, error) {
	status, body, _, _, err := pol.post(hc, base+"/v1/prepare", req, telemetry.MintTrace().Traceparent())
	if err != nil {
		return "", "", fmt.Errorf("prepare: %w", err)
	}
	if status != http.StatusOK {
		return "", "", fmt.Errorf("prepare: status %d: %s", status, body)
	}
	var pr serve.PrepareResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return "", "", fmt.Errorf("prepare: %w", err)
	}
	return pr.Handle, pr.Strategy, nil
}

// reportWorkload prints the server's workload rollups — the client-side
// rendering of GET /v1/workload.
func reportWorkload(out io.Writer, hc *http.Client, base string) error {
	var wl serve.WorkloadResponse
	if err := getJSON(hc, base+"/v1/workload", &wl); err != nil {
		return err
	}
	if !wl.Enabled {
		fmt.Fprintln(out, "workload: journal disabled on the server (-workload)")
		return nil
	}
	fmt.Fprintln(out, "workload classes:")
	for _, cr := range wl.Classes {
		fmt.Fprintf(out, "  %-48s  n=%-5d mean %7.2fms  max %7.2fms  pruned(mean) %.0f\n",
			cr.Class, cr.Count, cr.MeanMS, cr.MaxMS, cr.MeanPruned)
	}
	return nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// awaitReady polls /readyz until the server reports ready — covering both a
// daemon still replaying its durable store at boot and a race with process
// startup (connection refused).
func awaitReady(hc *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %v: %v", wait, err)
			}
			return fmt.Errorf("server not ready after %v", wait)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// retryPolicy retries shed (429) and unavailable (503) responses with
// jittered exponential backoff, honoring the server's Retry-After hint —
// header seconds or the structured body's retry_after_ms — when present.
type retryPolicy struct {
	max  int
	base time.Duration
	cap  time.Duration
}

// post issues one logical request, retrying per the policy. It returns the
// final status/body, the number of extra attempts spent, and how many
// shed/unavailable attempts violated the server contract by carrying no
// retry hint at all. The traceparent header is resent verbatim on every
// attempt — retries are the same logical request, so they share one trace.
func (p retryPolicy) post(hc *http.Client, url string, v any, traceparent string) (status int, body []byte, tries, missingRA int, err error) {
	for attempt := 0; ; attempt++ {
		var hint time.Duration
		status, body, hint, err = postOnce(hc, url, v, traceparent)
		if err != nil || (status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable) {
			return status, body, attempt, missingRA, err
		}
		if hint <= 0 {
			missingRA++
		}
		if attempt >= p.max {
			return status, body, attempt, missingRA, nil
		}
		time.Sleep(p.delay(attempt, hint))
	}
}

// delay picks the backoff before attempt+1: the server's hint when it gave
// one, otherwise full-jitter exponential from the base, both capped.
func (p retryPolicy) delay(attempt int, hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = p.base << attempt
		if d > p.cap || d <= 0 {
			d = p.cap
		}
		d = time.Duration(rand.Int63n(int64(d) + 1))
	}
	if d > p.cap {
		d = p.cap
	}
	return d
}

// retryAfterHint extracts the structured retry_after_ms from an error body.
func retryAfterHint(body []byte) time.Duration {
	var er serve.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != nil && er.Error.RetryAfterMS > 0 {
		return time.Duration(er.Error.RetryAfterMS) * time.Millisecond
	}
	return 0
}

// postOnce issues a single attempt and extracts the server's retry hint:
// the structured body's retry_after_ms, falling back to the Retry-After
// header (delta-seconds form).
func postOnce(hc *http.Client, url string, v any, traceparent string) (int, []byte, time.Duration, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("Traceparent", traceparent)
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, err
	}
	hint := retryAfterHint(body)
	if hint == 0 {
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, body, hint, nil
}

func report(out io.Writer, results [][]outcome, elapsed time.Duration, slow time.Duration) {
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	byStatus := map[int]int{}
	cached, retried, retryAttempts := 0, 0, 0
	lats := make([]time.Duration, 0, len(all))
	for _, o := range all {
		byStatus[o.status]++
		if o.cached {
			cached++
		}
		if o.retries > 0 {
			retried++
			retryAttempts += o.retries
		}
		lats = append(lats, o.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	fmt.Fprintf(out, "requests: %d in %v (%.1f req/s)\n",
		len(all), elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds())
	statuses := make([]int, 0, len(byStatus))
	for s := range byStatus {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		label := fmt.Sprint(s)
		if s == -1 {
			label = "transport-error"
		}
		fmt.Fprintf(out, "  status %s: %d\n", label, byStatus[s])
	}
	fmt.Fprintf(out, "  result-cache hits: %d\n", cached)
	fmt.Fprintf(out, "  retries: %d extra attempts across %d requests; shed after retries: %d\n",
		retryAttempts, retried, byStatus[http.StatusTooManyRequests])
	missing := 0
	for _, o := range all {
		missing += o.missingRA
	}
	fmt.Fprintf(out, "  missing retry-after: %d\n", missing)
	if len(lats) > 0 {
		fmt.Fprintf(out, "latency: p50 %v  p90 %v  p99 %v  max %v\n",
			pct(lats, 50).Round(time.Microsecond), pct(lats, 90).Round(time.Microsecond),
			pct(lats, 99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
	reportClasses(out, all)
	if slow > 0 {
		reportSlow(out, all, slow)
	}
}

// reportClasses breaks the run down by admission class: how many requests
// each class offered, how many the server admitted (200) vs shed (429, split
// out when the shed happened under memory pressure), and the
// latency percentiles of the class's admitted requests — the client-side
// view of priority ordering under overload. A shed returns in about a
// millisecond, so mixing 429s in would report a shed-heavy class as fast.
func reportClasses(out io.Writer, all []outcome) {
	byClass := map[string][]outcome{}
	for _, o := range all {
		byClass[o.class] = append(byClass[o.class], o)
	}
	if len(byClass) == 0 {
		return
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		os := byClass[c]
		admitted, shed, degraded := 0, 0, 0
		lats := make([]time.Duration, 0, len(os))
		for _, o := range os {
			switch o.status {
			case http.StatusOK:
				admitted++
				lats = append(lats, o.latency)
			case http.StatusTooManyRequests:
				shed++
				if o.degraded {
					degraded++
				}
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Fprintf(out, "class %-12s requests=%-5d admitted=%-5d shed=%-5d degraded=%d\n",
			c, len(os), admitted, shed, degraded)
		if len(lats) > 0 {
			fmt.Fprintf(out, "  admitted latency: p50 %v  p95 %v  p99 %v\n",
				pct(lats, 50).Round(time.Microsecond), pct(lats, 95).Round(time.Microsecond),
				pct(lats, 99).Round(time.Microsecond))
		}
	}
}

// reportSlow lists the requests slower than the threshold, worst first, with
// the trace id each one carried — the join key against the server's
// slow-query log and span-level traces.
func reportSlow(out io.Writer, all []outcome, slow time.Duration) {
	var over []outcome
	for _, o := range all {
		if o.latency >= slow {
			over = append(over, o)
		}
	}
	fmt.Fprintf(out, "slow requests (>= %v): %d of %d\n", slow, len(over), len(all))
	if len(over) == 0 {
		return
	}
	sort.Slice(over, func(i, j int) bool { return over[i].latency > over[j].latency })
	const worst = 5
	for i, o := range over {
		if i >= worst {
			fmt.Fprintf(out, "  ... and %d more\n", len(over)-worst)
			break
		}
		label := fmt.Sprint(o.status)
		if o.status == -1 {
			label = "transport-error"
		}
		fmt.Fprintf(out, "  %v  status %s  retries %d  trace %s\n",
			o.latency.Round(time.Microsecond), label, o.retries, o.traceID)
	}
}

// pct returns the p-th percentile of sorted latencies (nearest-rank).
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/cfq"
)

// TestServerLoadSoak is the acceptance load test: 8 concurrent clients ×
// 50 queries against a live cfqd server over real TCP — mixed query and
// explain traffic, some over-budget requests, some client-side
// cancellations, and one mid-run dataset mutation — then full answer
// verification against direct engine runs, a clean drain, and a
// goroutine-leak check. Run it under -race: the assertions are about
// concurrent correctness, not throughput.
func TestServerLoadSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	s := NewServer(Config{
		Workers:    2,
		QueueDepth: 2,
		QueueWait:  20 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	post := func(ctx context.Context, path string, v any) (int, []byte, error) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, body, nil
	}

	ctx := context.Background()
	if status, body, err := post(ctx, "/v1/datasets", marketSpec("market")); err != nil || status != http.StatusCreated {
		t.Fatalf("create: %d %s %v", status, body, err)
	}

	// Query variants with distinct canonical forms, so the storm exercises
	// both cache hits (repeats) and real evaluations (first hits, no_cache).
	variant := func(minSup int) string {
		return fmt.Sprintf("{(S,T) | freq(S) >= %d & freq(T) >= %d & max(S.Price) <= min(T.Price)}", minSup, minSup)
	}
	minSups := []int{2, 3, 4}
	mutation := [][]int{{0, 3}, {1, 4}}

	const clients = 8
	const perClient = 50
	var (
		ok200, budget422, shed429, cacheHits, cancels atomic.Int64
		maxGen                                        atomic.Uint64
		mutated                                       atomic.Bool
	)
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// One mid-run mutation, from one client, while the other
				// clients keep querying.
				if c == 0 && i == perClient/2 {
					status, body, err := post(ctx, "/v1/datasets/market/transactions",
						&MutateRequest{Transactions: mutation})
					if err != nil || status != http.StatusOK {
						errs <- fmt.Errorf("mutate: %d %s %v", status, body, err)
					} else {
						mutated.Store(true)
					}
					continue
				}
				req := &QueryRequest{
					Dataset: "market",
					Query:   variant(minSups[(c+i)%len(minSups)]),
				}
				path := "/v1/query"
				switch (c + i) % 9 {
				case 1: // explain traffic
					path = "/v1/explain"
				case 2: // over-budget: forced evaluation so the budget bites
					req.Budget = &BudgetSpec{MaxCandidates: 1}
					req.NoCache = true
					req.NoSession = true
				case 3, 4: // forced evaluation keeps the workers contended
					req.NoCache = true
				}
				rctx := ctx
				var cancel context.CancelFunc
				if (c+i)%11 == 5 { // client gives up almost immediately
					rctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				}
				status, body, err := post(rctx, path, req)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					if rctx != ctx {
						cancels.Add(1)
						continue // the client-side cancellation raced the response
					}
					errs <- err
					continue
				}
				switch status {
				case http.StatusOK:
					ok200.Add(1)
					var resp QueryResponse
					if jerr := json.Unmarshal(body, &resp); jerr != nil {
						errs <- fmt.Errorf("bad 200 body: %v", jerr)
						continue
					}
					if resp.Cached {
						cacheHits.Add(1)
					}
					for {
						cur := maxGen.Load()
						if resp.Generation <= cur || maxGen.CompareAndSwap(cur, resp.Generation) {
							break
						}
					}
				case http.StatusUnprocessableEntity:
					budget422.Add(1)
					var er ErrorResponse
					if jerr := json.Unmarshal(body, &er); jerr != nil || er.Error == nil ||
						er.Error.Code != CodeBudgetExhausted || er.Error.PartialStats == nil {
						errs <- fmt.Errorf("bad 422 body: %s", body)
					}
				case http.StatusTooManyRequests:
					shed429.Add(1)
					var er ErrorResponse
					if jerr := json.Unmarshal(body, &er); jerr != nil || er.Error == nil ||
						er.Error.Code != CodeOverloaded {
						errs <- fmt.Errorf("bad 429 body: %s", body)
					}
				case http.StatusServiceUnavailable:
					// A cancelled request context can surface as 503/canceled.
				default:
					errs <- fmt.Errorf("unexpected status %d: %s", status, body)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	t.Logf("storm: 200=%d 422=%d 429=%d cached=%d cancels=%d maxgen=%d",
		ok200.Load(), budget422.Load(), shed429.Load(), cacheHits.Load(), cancels.Load(), maxGen.Load())
	if !mutated.Load() {
		t.Fatal("mutation never applied")
	}
	if ok200.Load() == 0 || budget422.Load() == 0 {
		t.Error("storm missing successful or over-budget outcomes")
	}
	if cacheHits.Load() == 0 {
		t.Error("no result-cache hits on repeated normalized queries")
	}
	if maxGen.Load() != 2 {
		t.Errorf("max generation %d, want 2 after the mutation", maxGen.Load())
	}

	// Post-storm correctness: every variant's served answer matches a direct
	// engine run over the post-mutation data — the caches were not poisoned
	// by the storm or the mutation.
	ref := marketDataset(t)
	if err := ref.AddTransactions(mutation); err != nil {
		t.Fatal(err)
	}
	for _, m := range minSups {
		q, err := cfq.ParseQuery(ref, variant(m))
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.MaxPairs(20).Run(cfq.Optimized)
		if err != nil {
			t.Fatal(err)
		}
		for _, noCache := range []bool{false, true} {
			status, body, err := post(ctx, "/v1/query", &QueryRequest{
				Dataset: "market", Query: variant(m), NoCache: noCache,
			})
			if err != nil || status != http.StatusOK {
				t.Fatalf("post-storm minsup %d: %d %s %v", m, status, body, err)
			}
			var resp QueryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			var res cfq.Result
			if err := json.Unmarshal(resp.Result, &res); err != nil {
				t.Fatal(err)
			}
			if res.PairCount != want.PairCount {
				t.Errorf("minsup %d (noCache=%v): PairCount %d, direct %d",
					m, noCache, res.PairCount, want.PairCount)
			}
		}
	}

	// Clean drain: shutdown with a generous window returns nil, the serve
	// loop exits, and the port stops accepting. Release the client's pooled
	// connections first: the transport dials spare conns under burst load
	// that never carry a request, and the server only reaps such a conn
	// once it is 5s old — which would race the shutdown window.
	client.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after shutdown")
	}
	if _, _, err := post(ctx, "/v1/query", &QueryRequest{Dataset: "market", Query: variant(2)}); err == nil {
		t.Error("server still accepting after shutdown")
	}

	// No goroutine leaks: workers, queue waiters, per-request AfterFuncs and
	// the HTTP plumbing all unwound.
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+3 {
		t.Errorf("goroutines leaked: %d before, %d after", goroutinesBefore, n)
	}
}

// TestShedWhenSaturated forces the 429 path deterministically: with one
// worker and zero queue depth, the test holds the only admission slot
// itself, so any forced evaluation arriving meanwhile must be shed with a
// Retry-After hint — and admitted again once the slot is released.
func TestShedWhenSaturated(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: -1, QueueWait: 10 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	base := "http://" + ln.Addr().String()

	status, body := postJSON(t, base+"/v1/datasets", marketSpec("market"))
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	// NoCache keeps the request off the cache fast path, which would bypass
	// admission entirely.
	req := &QueryRequest{
		Dataset: "market",
		Query:   "freq(S) >= 2 & freq(T) >= 2",
		NoCache: true,
	}

	if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, base+"/v1/query", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == nil ||
		er.Error.Code != CodeOverloaded || er.Error.RetryAfterMS <= 0 {
		t.Fatalf("429 without code/retry hint: %s", body)
	}

	s.adm.release()
	status, body = postJSON(t, base+"/v1/query", req)
	if status != http.StatusOK {
		t.Fatalf("after release: status %d, want 200: %s", status, body)
	}
}

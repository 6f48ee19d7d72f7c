package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/cfq"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// calibrateServeOps replays the soak's storage script (recover an empty
// directory, create the dataset over the API, append one batch) against a
// zero-plan FaultFS and returns the mutating-op count — the index of the
// first append's fsync, which the chaos run targets.
func calibrateServeOps(t *testing.T) int64 {
	t.Helper()
	ffs := faultinject.NewFaultFS(store.OSFS{}, faultinject.FaultPlan{})
	s := NewServer(Config{Store: &store.Options{Dir: t.TempDir(), FS: ffs}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body := postJSON(t, ts.URL+"/v1/datasets", marketSpec("market")); status != http.StatusCreated {
		t.Fatalf("calibrate create: %d %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: [][]int{{0, 3}, {1, 4}}}); status != http.StatusOK {
		t.Fatalf("calibrate mutate: %d %s", status, body)
	}
	ops := ffs.Ops()
	shutdownServer(t, s)
	return ops
}

// canonicalAnswer strips the run-dependent execution stats from a Result
// document and re-marshals it: the answer (pairs, valid sets, levels,
// counts) must be byte-identical across servers, while DBScans or lattice
// bytes legitimately vary with each server's session-cache history.
func canonicalAnswer(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var res cfq.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	res.Stats = cfq.Stats{}
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOverloadChaosSoak is the overload acceptance soak (run it under
// -race): a priority-mixed query storm at several times the server's
// capacity, while the test injects — deterministically — a transient fsync
// fault into the durable store and synthetic memory pressure into the
// watchdog. Asserts the full resilience contract:
//
//   - every storm response is structured: 200, or 429/503 carrying an error
//     code, with every 429 carrying a positive retry hint;
//   - priority shedding is ordered: under brownout, batch is shed with
//     reason "degraded" while interactive is never degraded-shed;
//   - the storage breaker recovers the transient fault without restart: the
//     faulted mutation and the fast-fails are 503 storage, the post-cooloff
//     mutation is acked at the next generation;
//   - the brownout unwinds to level 0 once pressure lifts;
//   - post-storm answers are byte-identical to a fresh replica server fed
//     the same acked history — no cache poisoning, no lost or phantom
//     mutation;
//   - pruning attribution survives the storm: explain-analyze's per-site
//     sum still equals the counter total;
//   - a clean drain leaks no goroutines.
func TestOverloadChaosSoak(t *testing.T) {
	syncOp := calibrateServeOps(t)
	goroutinesBefore := runtime.NumGoroutine()

	const cooloff = 150 * time.Millisecond
	ffs := faultinject.NewFaultFS(store.OSFS{}, faultinject.FaultPlan{SyncErrAt: syncOp})
	var mem atomic.Int64
	mem.Store(100)
	s := NewServer(Config{
		Workers:      2,
		QueueDepth:   2,
		QueueWait:    100 * time.Millisecond,
		MemSoftLimit: 1000,
		memTick:      2 * time.Millisecond,
		memProbe:     mem.Load,
		Store:        &store.Options{Dir: t.TempDir(), FS: ffs, BreakerCooloff: cooloff},
	})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}

	post := func(path string, v any) (int, []byte, error) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(b))
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

	if status, body, err := post("/v1/datasets", marketSpec("market")); err != nil || status != http.StatusCreated {
		t.Fatalf("create: %d %s %v", status, body, err)
	}

	variant := func(minSup int) string {
		return fmt.Sprintf("{(S,T) | freq(S) >= %d & freq(T) >= %d & max(S.Price) <= min(T.Price)}", minSup, minSup)
	}
	minSups := []int{2, 3, 4}

	// The storm: 16 clients against 4 slots (2 workers + 2 queue), half
	// interactive, half batch, mostly forced evaluations. All mutations stay
	// on the main goroutine so the fault plan's op index is deterministic.
	var stop atomic.Bool
	var (
		ok200, shed429, storage503, other5xx atomic.Int64
		badBody                              atomic.Int64
		degradedBodies                       atomic.Int64
	)
	errs := make(chan error, 256)
	reportErr := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	const clients = 16
	var wg sync.WaitGroup
	// A t.Fatalf below must not leave the storm running into the next test:
	// its requests land in process-global metrics other tests count.
	t.Cleanup(func() {
		stop.Store(true)
		wg.Wait()
	})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			class := "interactive"
			if c%2 == 1 {
				class = "batch"
			}
			for i := 0; !stop.Load(); i++ {
				req := &QueryRequest{
					Dataset:  "market",
					Query:    variant(minSups[(c+i)%len(minSups)]),
					Priority: class,
					NoCache:  (c+i)%4 != 0, // mostly forced evaluations
				}
				status, body, err := post("/v1/query", req)
				if err != nil {
					reportErr(err)
					continue
				}
				switch {
				case status == http.StatusOK:
					ok200.Add(1)
				case status == http.StatusTooManyRequests:
					shed429.Add(1)
					var er ErrorResponse
					if jerr := json.Unmarshal(body, &er); jerr != nil || er.Error == nil ||
						er.Error.Code != CodeOverloaded || er.Error.RetryAfterMS <= 0 {
						badBody.Add(1)
						reportErr(fmt.Errorf("bad 429 body: %s", body))
					} else if er.Error.DegradationLevel > 0 {
						degradedBodies.Add(1)
					}
				case status == http.StatusServiceUnavailable:
					storage503.Add(1)
					var er ErrorResponse
					if jerr := json.Unmarshal(body, &er); jerr != nil || er.Error == nil || er.Error.Code == "" {
						badBody.Add(1)
						reportErr(fmt.Errorf("bad 503 body: %s", body))
					}
				case status >= 500:
					other5xx.Add(1)
					reportErr(fmt.Errorf("unstructured %d: %s", status, body))
				default:
					reportErr(fmt.Errorf("unexpected status %d: %s", status, body))
				}
			}
		}(c)
	}

	// Phase 1 — plain overload: let the storm shed on queue pressure alone.
	time.Sleep(100 * time.Millisecond)

	// Phase 2 — storage chaos: the first append's fsync fails. The mutation
	// is refused as a structured 503 storage (nothing was acked), and the
	// wedged log fast-fails the immediate retry the same way.
	mutation := [][]int{{0, 3}, {1, 4}}
	status, body, err := post("/v1/datasets/market/transactions", &MutateRequest{Transactions: mutation})
	if err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("faulted mutate: %d %s %v, want 503", status, body, err)
	}
	var er ErrorResponse
	if jerr := json.Unmarshal(body, &er); jerr != nil || er.Error == nil || er.Error.Code != CodeStorage {
		t.Fatalf("faulted mutate body: %s, want code %q", body, CodeStorage)
	}
	if status, body, err = post("/v1/datasets/market/transactions", &MutateRequest{Transactions: mutation}); err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("wedged mutate: %d %s %v, want fast-fail 503", status, body, err)
	}

	// Phase 3 — memory pressure: push the watchdog into the degraded state and
	// hold it there long enough for the storm's batch half to be degraded-shed.
	mem.Store(1100)
	waitLevel(t, s, 1)
	time.Sleep(150 * time.Millisecond)

	// Phase 4 — pressure lifts; the degraded state must unwind fully.
	mem.Store(100)
	waitLevel(t, s, 0)

	// Phase 5 — breaker recovery: past the cooloff, the same mutation is
	// acked at generation 2. No restart happened.
	time.Sleep(cooloff)
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body, err = post("/v1/datasets/market/transactions", &MutateRequest{Transactions: mutation})
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mutate never recovered: %d %s %v", status, body, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var mutResp DatasetsResponse
	if jerr := json.Unmarshal(body, &mutResp); jerr != nil || mutResp.Dataset == nil {
		t.Fatalf("recovered mutate body: %s", body)
	}
	if mutResp.Dataset.Generation != 2 {
		t.Errorf("recovered mutation acked at generation %d, want 2 (faulted append never acked)",
			mutResp.Dataset.Generation)
	}

	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("storm: 200=%d 429=%d 503=%d degraded-bodies=%d",
		ok200.Load(), shed429.Load(), storage503.Load(), degradedBodies.Load())
	if ok200.Load() == 0 || shed429.Load() == 0 {
		t.Error("storm missing successes or sheds")
	}
	if other5xx.Load() != 0 {
		t.Errorf("%d non-structured 5xx responses", other5xx.Load())
	}

	// Priority-shed ordering: the brownout window shed batch with reason
	// "degraded"; interactive was never degraded-shed.
	st := s.adm.state()
	if st.Sheds["batch:"+shedDegraded] == 0 {
		t.Errorf("no batch degraded sheds recorded: %v", st.Sheds)
	}
	if n := st.Sheds["interactive:"+shedDegraded]; n != 0 {
		t.Errorf("%d interactive requests degraded-shed: %v", n, st.Sheds)
	}
	if lvl := s.degradeLevel(); lvl != 0 {
		t.Errorf("post-storm degradation level %d, want 0", lvl)
	}

	// Post-storm equality: a fresh replica server fed the same acked history
	// (create + the one recovered mutation) must answer every variant
	// byte-identically — the storm, the brownout cache shrink, and the
	// breaker round-trip poisoned nothing.
	replica, rts := newTestServer(t, Config{})
	if status, body := postJSON(t, rts.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: mutation}); status != http.StatusOK {
		t.Fatalf("replica mutate: %d %s", status, body)
	}
	for _, m := range minSups {
		req := &QueryRequest{Dataset: "market", Query: variant(m), NoCache: true}
		status, body, err := post("/v1/query", req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-storm query minsup %d: %d %s %v", m, status, body, err)
		}
		var primary QueryResponse
		if err := json.Unmarshal(body, &primary); err != nil {
			t.Fatal(err)
		}
		rstatus, rbody := postJSON(t, rts.URL+"/v1/query", req)
		if rstatus != http.StatusOK {
			t.Fatalf("replica query minsup %d: %d %s", m, rstatus, rbody)
		}
		rep := queryResp(t, rbody)
		if p, r := canonicalAnswer(t, primary.Result), canonicalAnswer(t, rep.Result); !bytes.Equal(p, r) {
			t.Errorf("minsup %d: post-storm answer diverged from replica\nprimary: %s\nreplica: %s",
				m, p, r)
		}
		if primary.Generation != 2 {
			t.Errorf("minsup %d: post-storm generation %d, want 2", m, primary.Generation)
		}
	}

	// The replica served its purpose; tear it down (and the default client's
	// keep-alive conns to it) before the goroutine accounting below.
	shutdownServer(t, replica)
	rts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Attribution integrity: per-site pruning still sums to the counter
	// total after everything the storm did to the shared session state.
	status, body, err = post("/v1/explain-analyze", &QueryRequest{
		Dataset: "market", Query: variant(2), NoCache: true,
	})
	if err != nil || status != http.StatusOK {
		t.Fatalf("explain-analyze: %d %s %v", status, body, err)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	var res cfq.Result
	var report cfq.ExplainReport
	if err := json.Unmarshal(qr.Result, &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(qr.Explain, &report); err != nil {
		t.Fatal(err)
	}
	if got := report.SumPruned(); got != res.Stats.CandidatesPruned {
		t.Errorf("attribution broke: SumPruned %d != CandidatesPruned %d", got, res.Stats.CandidatesPruned)
	}

	// Clean drain and goroutine hygiene: workers, queue waiters, the
	// watchdog sampler, and the store's background goroutines all unwind.
	client.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
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
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+3 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+3 {
		t.Errorf("goroutines leaked: %d before, %d after", goroutinesBefore, n)
	}
}

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/cfq"
	"repro/internal/obs"
)

// TestRequestCollapsing: N concurrent identical cache-miss queries mine the
// lattice exactly once — one leader evaluates, the followers are fanned the
// shared raw result under their own response envelopes and correlation
// headers. The database-scan counter provides the ground truth: the storm's
// scan delta equals a single evaluation's, measured on an identical dataset.
func TestRequestCollapsing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, QueueWait: 5 * time.Second})

	// Hold the only worker slot so the leader parks in admission while the
	// followers pile onto the flight.
	if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
		t.Fatal(err)
	}

	const n = 6
	req := &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}
	type reply struct {
		status int
		resp   QueryResponse
		reqID  string
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postWithHeaders(t, ts.URL+"/v1/query", req, nil)
			defer resp.Body.Close()
			var r reply
			r.status = resp.StatusCode
			r.reqID = resp.Header.Get("X-Request-ID")
			if err := json.NewDecoder(resp.Body).Decode(&r.resp); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			replies <- r
		}()
	}

	// Wait until the leader is queued in admission and the flight is open,
	// then give the followers a beat to park on it before releasing the slot.
	deadline := time.Now().Add(5 * time.Second)
	for (s.adm.state().Queued < 1 || s.flights.inflight() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.flights.inflight() != 1 {
		t.Fatalf("flights in-flight %d, want 1", s.flights.inflight())
	}
	time.Sleep(100 * time.Millisecond)

	scansBefore := obs.MDBScans.Value()
	collapsedBefore := mCollapsed.Value()
	s.adm.release()
	wg.Wait()
	close(replies)
	stormScans := obs.MDBScans.Value() - scansBefore

	// Reference: the same query, evaluated once on an identical fresh
	// dataset, costs this many scans.
	if status, body := postJSON(t, ts.URL+"/v1/datasets", marketSpec("market2")); status != http.StatusCreated {
		t.Fatalf("create market2: %d %s", status, body)
	}
	refBefore := obs.MDBScans.Value()
	ref := *req
	ref.Dataset = "market2"
	if status, body := postJSON(t, ts.URL+"/v1/query", &ref); status != http.StatusOK {
		t.Fatalf("reference query: %d %s", status, body)
	}
	refScans := obs.MDBScans.Value() - refBefore

	if stormScans != refScans {
		t.Errorf("storm of %d identical queries scanned %d times, want a single evaluation's %d", n, stormScans, refScans)
	}
	if got := mCollapsed.Value() - collapsedBefore; got < 1 {
		t.Errorf("collapsed followers %d, want >= 1", got)
	}

	// Every reply: a 200 with the correct answer and correlation headers;
	// exactly one evaluated fresh (the leader), the rest were collapsed or
	// served from the cache the leader populated.
	want := directAnswer(t, readmeQueryText, 2, nil)
	fresh := 0
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("reply status %d", r.status)
		}
		if r.reqID == "" || r.resp.TraceID == "" {
			t.Error("reply missing correlation ids")
		}
		if !r.resp.Collapsed && !r.resp.Cached {
			fresh++
		}
		var res cfq.Result
		if err := json.Unmarshal(r.resp.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.PairCount != want.PairCount {
			t.Errorf("reply PairCount %d, want %d", res.PairCount, want.PairCount)
		}
	}
	if fresh != 1 {
		t.Errorf("%d fresh evaluations in the storm, want exactly 1 leader", fresh)
	}
}

// directAnswer runs the query on a reference copy of the market dataset
// (with optional extra transactions) straight through the engine.
func directAnswer(t *testing.T, query string, minSup int, extra [][]int) *cfq.Result {
	t.Helper()
	ds := marketDataset(t)
	if len(extra) > 0 {
		if err := ds.AddTransactions(extra); err != nil {
			t.Fatal(err)
		}
	}
	q, err := cfq.ParseQuery(ds, query)
	if err != nil {
		t.Fatal(err)
	}
	if minSup > 0 {
		def := cfq.NewQuery(ds)
		def.MinSupport(minSup)
		q.ApplyDefaultSupports(def)
	}
	res, err := q.MaxPairs(20).Run(cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCollapseGenerationIsolation: the flight key carries the dataset
// generation, so a request that arrives after a mid-flight mutation forms
// its own flight and gets the post-mutation answer — the pre-mutation
// flight's shared result can never leak across the generation bump.
func TestCollapseGenerationIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, QueueWait: 5 * time.Second})

	if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
		t.Fatal(err)
	}

	req := &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}
	type reply struct {
		status int
		resp   QueryResponse
	}
	fire := func() chan reply {
		out := make(chan reply, 1)
		go func() {
			status, body := postJSON(t, ts.URL+"/v1/query", req)
			var r reply
			r.status = status
			if status == http.StatusOK {
				if err := json.Unmarshal(body, &r.resp); err != nil {
					t.Errorf("decode: %v", err)
				}
			}
			out <- r
		}()
		return out
	}

	// Leader and one follower join the generation-1 flight.
	lead := fire()
	deadline := time.Now().Add(5 * time.Second)
	for (s.adm.state().Queued < 1 || s.flights.inflight() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	follow := fire()
	time.Sleep(50 * time.Millisecond)

	// The mutation lands while the flight is still in-flight: generation 2.
	extra := [][]int{{0, 3}, {1, 4}}
	if status, body := postJSON(t, ts.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: extra}); status != http.StatusOK {
		t.Fatalf("mutate: %d %s", status, body)
	}

	// A post-mutation request reads generation 2: different key, own flight.
	after := fire()
	time.Sleep(50 * time.Millisecond)

	s.adm.release()
	r1, r2, r3 := <-lead, <-follow, <-after
	for i, r := range []reply{r1, r2, r3} {
		if r.status != http.StatusOK {
			t.Fatalf("reply %d status %d", i, r.status)
		}
	}
	// The old flight stayed keyed to generation 1...
	if r1.resp.Generation != 1 || r2.resp.Generation != 1 {
		t.Errorf("pre-mutation flight generations %d/%d, want 1/1", r1.resp.Generation, r2.resp.Generation)
	}
	// ...and the post-mutation request never joined it: it carries the new
	// generation, was not collapsed into the old flight, and its answer
	// matches a direct engine run over the mutated data.
	if r3.resp.Generation != 2 {
		t.Errorf("post-mutation generation %d, want 2", r3.resp.Generation)
	}
	if r3.resp.Collapsed {
		t.Error("post-mutation request was collapsed into the stale flight")
	}
	want := directAnswer(t, readmeQueryText, 2, extra)
	var res cfq.Result
	if err := json.Unmarshal(r3.resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.PairCount != want.PairCount {
		t.Errorf("post-mutation PairCount %d, want %d", res.PairCount, want.PairCount)
	}
}

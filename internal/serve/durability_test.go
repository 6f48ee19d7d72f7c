package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// durableServer builds a server over a durable store rooted at dir and runs
// boot recovery.
func durableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{Store: &store.Options{Dir: dir}})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func deleteReq(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestDurableRebootEquality: create + mutate + drop against a durable
// server, shut it down cleanly, boot a second server over the same data
// directory — every surviving dataset reappears at its acked generation and
// answers the reference query byte-identically.
func TestDurableRebootEquality(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir)

	if status, body := postJSON(t, ts1.URL+"/v1/datasets", marketSpec("market")); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, body := postJSON(t, ts1.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: [][]int{{0, 3}, {1, 4}}}); status != http.StatusOK {
		t.Fatalf("mutate: %d %s", status, body)
	}
	if status, body := postJSON(t, ts1.URL+"/v1/datasets", marketSpec("doomed")); status != http.StatusCreated {
		t.Fatalf("create doomed: %d %s", status, body)
	}
	if status, body := deleteReq(t, ts1.URL+"/v1/datasets/doomed"); status != http.StatusOK {
		t.Fatalf("drop doomed: %d %s", status, body)
	}
	status, body := postJSON(t, ts1.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, NoCache: true,
	})
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	before := queryResp(t, body)
	if before.Generation != 2 {
		t.Fatalf("pre-reboot generation = %d, want 2", before.Generation)
	}
	shutdownServer(t, s1)

	s2, ts2 := durableServer(t, dir)
	defer shutdownServer(t, s2)
	var list DatasetsResponse
	if status, body := getJSON(t, ts2.URL+"/v1/datasets", &list); status != http.StatusOK {
		t.Fatalf("list: %d %s", status, body)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "market" {
		t.Fatalf("recovered datasets = %+v, want only market", list.Datasets)
	}
	if g := list.Datasets[0].Generation; g != 2 {
		t.Fatalf("recovered generation = %d, want 2", g)
	}
	status, body = postJSON(t, ts2.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, NoCache: true,
	})
	if status != http.StatusOK {
		t.Fatalf("post-reboot query: %d %s", status, body)
	}
	after := queryResp(t, body)
	if !bytes.Equal(before.Result, after.Result) {
		t.Fatalf("query answers diverged across reboot\nbefore: %s\nafter:  %s", before.Result, after.Result)
	}
	// Mutations keep working on the recovered log and the dropped name is
	// reusable.
	if status, body := postJSON(t, ts2.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: [][]int{{2, 5}}}); status != http.StatusOK {
		t.Fatalf("post-reboot mutate: %d %s", status, body)
	}
	if status, body := postJSON(t, ts2.URL+"/v1/datasets", marketSpec("doomed")); status != http.StatusCreated {
		t.Fatalf("re-create dropped name: %d %s", status, body)
	}
}

func getJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(buf.Bytes(), v); err != nil {
			t.Fatalf("bad body: %v\n%s", err, buf.Bytes())
		}
	}
	return resp.StatusCode, buf.Bytes()
}

// TestReadyzLifecycle: a durable server is not-ready until Recover, ready
// while serving, and not-ready again while draining; /v1 traffic gets a
// structured 503 with Retry-After during the not-ready windows, and
// /healthz stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{Store: &store.Options{Dir: dir}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var probe map[string]string
	if status, _ := getJSON(t, ts.URL+"/readyz", &probe); status != http.StatusServiceUnavailable || probe["status"] != "starting" {
		t.Fatalf("pre-recovery readyz = %d %v, want 503 starting", status, probe)
	}
	if status, _ := getJSON(t, ts.URL+"/healthz", &probe); status != http.StatusOK {
		t.Fatalf("pre-recovery healthz = %d, want 200", status)
	}
	// /v1 is gated with a structured not_ready error.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"dataset":"market","query":"{(S,T) | freq(S) >= 2 & freq(T) >= 2}"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery /v1/query = %d, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code != CodeNotReady {
		t.Fatalf("pre-recovery error body: %s", body.Bytes())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not_ready response missing Retry-After")
	}

	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if status, _ := getJSON(t, ts.URL+"/readyz", &probe); status != http.StatusOK || probe["status"] != "ready" {
		t.Fatalf("post-recovery readyz = %d %v, want 200 ready", status, probe)
	}
	if status, body := postJSON(t, ts.URL+"/v1/datasets", marketSpec("market")); status != http.StatusCreated {
		t.Fatalf("create after recovery: %d %s", status, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if status, _ := getJSON(t, ts.URL+"/readyz", &probe); status != http.StatusServiceUnavailable || probe["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v, want 503 draining", status, probe)
	}
	if status, _ := getJSON(t, ts.URL+"/healthz", &probe); status != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", status)
	}
}

// TestDropMutateQueryStorm is the -race regression for registry lifecycle
// races: concurrent create / mutate / drop / query / info on the same
// dataset name must never panic (the historical hazard: a mutation catching
// a dangling entry mid-drop) and every response must be one of the
// structured outcomes — 200/201, 404 unknown_dataset, 409
// dataset_exists/dataset_dropped.
func TestDropMutateQueryStorm(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "ephemeral", true: "durable"}[durable], func(t *testing.T) {
			cfg := Config{}
			if durable {
				cfg.Store = &store.Options{Dir: t.TempDir()}
			}
			s := NewServer(cfg)
			if _, err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			defer shutdownServer(t, s)

			allowed := map[int]bool{
				http.StatusOK: true, http.StatusCreated: true,
				http.StatusNotFound: true, http.StatusConflict: true,
			}
			const workers = 6
			iters := 40
			if durable {
				iters = 15 // every op fsyncs; keep the storm short
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers*iters)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						var status int
						var body []byte
						switch (w + i) % 4 {
						case 0:
							status, body = postJSON(t, ts.URL+"/v1/datasets", marketSpec("storm"))
						case 1:
							status, body = postJSON(t, ts.URL+"/v1/datasets/storm/transactions",
								&MutateRequest{Transactions: [][]int{{0, 3}}})
						case 2:
							status, body = deleteReq(t, ts.URL+"/v1/datasets/storm")
						case 3:
							status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{
								Dataset: "storm",
								Query:   "{(S,T) | freq(S) >= 2 & freq(T) >= 2}",
							})
						}
						if !allowed[status] {
							errs <- fmt.Errorf("worker %d op %d: status %d: %s", w, i, status, body)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashLosesLatticeNotAnswers: the session's lattice lives in memory
// only. A server that has been carrying it across appends is cut off by a
// power failure in the middle of a further append; the recovered server
// holds no lattice, so its first query mines from scratch — and answers, at
// the recovered generation, exactly what the crashed server answered there
// from its advanced lattice.
func TestCrashLosesLatticeNotAnswers(t *testing.T) {
	const query = "{(S,T) | freq(S) >= 2 & freq(T) >= 2 & max(S.Price) <= min(T.Price)}"
	batches := [][][]int{{{0, 1, 2, 3}, {0, 1, 2}}, {{1, 2, 3, 4}, {0, 1, 2, 3}}, {{2, 3, 4, 5}}}

	// script creates the dataset and appends the batches, querying after
	// each step; it returns the answers by generation and the storage ops
	// consumed before the last append.
	script := func(ffs *faultinject.FaultFS, dir string) (map[uint64][]byte, int64) {
		s := NewServer(Config{Store: &store.Options{Dir: dir, FS: ffs}})
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if status, body := postJSON(t, ts.URL+"/v1/datasets", marketSpec("market")); status != http.StatusCreated {
			t.Fatalf("create: %d %s", status, body)
		}
		answers := map[uint64][]byte{}
		var ops int64
		for i, batch := range batches {
			status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{Dataset: "market", Query: query, NoCache: true})
			if status != http.StatusOK {
				t.Fatalf("query %d: %d %s", i, status, body)
			}
			resp := queryResp(t, body)
			answers[resp.Generation] = canonicalAnswer(t, resp.Result)
			ops = ffs.Ops()
			status, body = postJSON(t, ts.URL+"/v1/datasets/market/transactions", &MutateRequest{Transactions: batch})
			if crashed := ffs.Crashed(); crashed != (status != http.StatusOK) {
				t.Fatalf("append %d: status %d with crashed=%v: %s", i, status, crashed, body)
			}
		}
		_, sess, _, err := s.reg.Lookup("market")
		if err != nil {
			t.Fatal(err)
		}
		if cs := sess.CacheStats(); cs.Remines != 1 || cs.Advances != len(batches)-1 {
			t.Fatalf("session stats %+v: want one re-mine, then an advance per append", cs)
		}
		if ffs.Crashed() {
			// Stops the server's goroutines; the dead store cannot close cleanly.
			_ = s.Shutdown(context.Background())
		} else {
			shutdownServer(t, s)
		}
		return answers, ops
	}

	_, ops := script(faultinject.NewFaultFS(store.OSFS{}, faultinject.FaultPlan{}), t.TempDir())
	dir := t.TempDir()
	answers, _ := script(faultinject.NewFaultFS(store.OSFS{}, faultinject.FaultPlan{CrashAt: ops + 1}), dir)

	s, ts := durableServer(t, dir)
	defer shutdownServer(t, s)
	status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{Dataset: "market", Query: query, NoCache: true})
	if status != http.StatusOK {
		t.Fatalf("post-recovery query: %d %s", status, body)
	}
	resp := queryResp(t, body)
	want, ok := answers[resp.Generation]
	if !ok || resp.Generation != uint64(len(batches)) {
		t.Fatalf("recovered at generation %d, want %d (the crashed append lost, the acked ones kept)", resp.Generation, len(batches))
	}
	if got := canonicalAnswer(t, resp.Result); !bytes.Equal(got, want) {
		t.Errorf("re-mined answer differs from the advanced one at generation %d\nre-mined: %s\nadvanced: %s", resp.Generation, got, want)
	}
	_, sess, _, err := s.reg.Lookup("market")
	if err != nil {
		t.Fatal(err)
	}
	if cs := sess.CacheStats(); cs.Remines != 1 || cs.Advances != 0 || cs.Hits != 1 {
		t.Errorf("recovered session stats %+v: want the first query to mine from scratch", cs)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/cfq"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCheck compares got against testdata/<name>, rewriting under -update.
func goldenCheck(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// marketSpec is the README quickstart dataset as a wire spec: snacks and
// beer with prices, 8 transactions.
func marketSpec(name string) *DatasetSpec {
	return &DatasetSpec{
		Name:  name,
		Items: 6,
		Transactions: [][]int{
			{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {0, 1, 4},
			{2, 3, 5}, {0, 1, 2, 3}, {1, 3, 4}, {0, 2, 3, 5},
		},
		Numeric:     map[string][]float64{"Price": {2, 3, 4, 8, 12, 20}},
		Categorical: map[string][]string{"Type": {"snacks", "snacks", "snacks", "beer", "beer", "beer"}},
	}
}

// marketDataset is the same dataset built directly (reference answers).
func marketDataset(t *testing.T) *cfq.Dataset {
	t.Helper()
	spec := marketSpec("ref")
	ds := cfq.NewDataset(spec.Items)
	if err := ds.AddTransactions(spec.Transactions); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetNumeric("Price", spec.Numeric["Price"]); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCategorical("Type", spec.Categorical["Type"]); err != nil {
		t.Fatal(err)
	}
	return ds
}

const readmeQueryText = "{(S,T) | freq(S) >= 2 & freq(T) >= 2 & S.Type subset {snacks} & T.Type subset {beer} & max(S.Price) <= min(T.Price)}"

// newTestServer starts a server over httptest and registers the market
// dataset.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	status, body := postJSON(t, ts.URL+"/v1/datasets", marketSpec("market"))
	if status != http.StatusCreated {
		t.Fatalf("create dataset: status %d: %s", status, body)
	}
	return s, ts
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func queryResp(t *testing.T, body []byte) *QueryResponse {
	t.Helper()
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad response: %v\n%s", err, body)
	}
	return &resp
}

func indent(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.String() + "\n"
}

// TestQueryRoundTrip: the full wire path — create dataset, query it, check
// the envelope and that the result matches a direct engine run; a repeat of
// the same query (different spelling) is served from the result cache.
func TestQueryRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := queryResp(t, body)
	if resp.Schema != SchemaVersion {
		t.Errorf("schema %d, want %d", resp.Schema, SchemaVersion)
	}
	if resp.RequestID == "" {
		t.Error("missing request_id")
	}
	if resp.Cached {
		t.Error("first query claims cached")
	}
	if resp.Strategy != "session" {
		t.Errorf("strategy %q, want session", resp.Strategy)
	}
	var res cfq.Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	direct, err := cfq.ParseQuery(marketDataset(t), readmeQueryText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.MaxPairs(20).Run(cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairCount != want.PairCount {
		t.Errorf("PairCount %d over the wire, %d direct", res.PairCount, want.PairCount)
	}

	// The same query, spelled with reordered conjuncts and extra whitespace,
	// normalizes to the same canonical form and hits the result cache.
	respelled := "{(S,T) | T.Type subset {beer} &  max(S.Price) <= min(T.Price) & freq(T) >= 2 & freq(S) >= 2 & S.Type subset {snacks}}"
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: respelled,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp2 := queryResp(t, body)
	if !resp2.Cached {
		t.Error("normalized respelling missed the result cache")
	}
	if !bytes.Equal(resp.Result, resp2.Result) {
		t.Error("cached result bytes differ from the original")
	}

	// no_cache bypasses the cache but returns the same answer.
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, NoCache: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if resp3 := queryResp(t, body); resp3.Cached {
		t.Error("no_cache request claims cached")
	}
}

// TestWireGoldens pins the three endpoints' payloads for the README query.
// The Result and ExplainReport documents are deterministic for a fixed
// dataset (no wall times), so the full payload is golden-able; the envelope
// is checked structurally (request ids vary).
func TestWireGoldens(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		endpoint string
		golden   string
		field    func(*QueryResponse) json.RawMessage
	}{
		{"/v1/query", "query_readme_result.json", func(r *QueryResponse) json.RawMessage { return r.Result }},
		{"/v1/explain", "explain_readme.json", func(r *QueryResponse) json.RawMessage { return r.Explain }},
		{"/v1/explain-analyze", "analyze_readme_explain.json", func(r *QueryResponse) json.RawMessage { return r.Explain }},
	}
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.endpoint, "/v1/"), func(t *testing.T) {
			status, body := postJSON(t, ts.URL+c.endpoint, &QueryRequest{
				Dataset: "market", Query: readmeQueryText, NoCache: true,
			})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			resp := queryResp(t, body)
			if resp.Schema != SchemaVersion || resp.RequestID == "" || resp.Generation != 1 {
				t.Errorf("bad envelope: %+v", resp)
			}
			goldenCheck(t, c.golden, indent(t, c.field(resp)))
		})
	}

	// explain must not have run the query; explain-analyze must have.
	for _, c := range []struct {
		endpoint string
		analyzed bool
	}{{"/v1/explain", false}, {"/v1/explain-analyze", true}} {
		status, body := postJSON(t, ts.URL+c.endpoint, &QueryRequest{
			Dataset: "market", Query: readmeQueryText, NoCache: true,
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var rep cfq.ExplainReport
		if err := json.Unmarshal(queryResp(t, body).Explain, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Analyzed != c.analyzed {
			t.Errorf("%s: analyzed=%v, want %v", c.endpoint, rep.Analyzed, c.analyzed)
		}
	}
}

// TestTraceReport: trace=true responses carry the server's span tree with
// the request phases, and bypass the result cache.
func TestTraceReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{
			Dataset: "market", Query: readmeQueryText, Trace: true,
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		resp := queryResp(t, body)
		if resp.Cached {
			t.Fatal("traced request served from cache")
		}
		if resp.Report == nil {
			t.Fatal("trace=true returned no report")
		}
		if resp.Report.Schema != SchemaVersion {
			t.Errorf("report schema %d", resp.Report.Schema)
		}
		var names []string
		for _, sp := range resp.Report.Root.Children {
			names = append(names, sp.Name)
		}
		joined := strings.Join(names, ",")
		for _, phase := range []string{"parse", "admission", "evaluate"} {
			if !strings.Contains(joined, phase) {
				t.Errorf("report phases %q missing %q", joined, phase)
			}
		}
	}
}

// TestErrorMapping: each failure mode maps to its status and error code,
// and budget exhaustion carries partial stats.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	check := func(endpoint string, req any, wantStatus int, wantCode string) *ErrorResponse {
		t.Helper()
		status, body := postJSON(t, ts.URL+endpoint, req)
		if status != wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", endpoint, status, wantStatus, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == nil {
			t.Fatalf("%s: bad error envelope: %s", endpoint, body)
		}
		if er.Error.Code != wantCode {
			t.Fatalf("%s: code %q, want %q", endpoint, er.Error.Code, wantCode)
		}
		if er.RequestID == "" || er.Schema != SchemaVersion {
			t.Errorf("%s: bad envelope: %+v", endpoint, er)
		}
		return &er
	}

	check("/v1/query", &QueryRequest{Dataset: "nope", Query: "freq(S) >= 2"},
		http.StatusNotFound, CodeUnknownDataset)
	check("/v1/query", &QueryRequest{Dataset: "market", Query: "{(S,T) | garbage here}"},
		http.StatusBadRequest, CodeBadRequest)
	check("/v1/query", &QueryRequest{Dataset: "market", Query: "freq(S) >= 2", Strategy: "mystery"},
		http.StatusBadRequest, CodeBadRequest)
	check("/v1/query", &QueryRequest{Dataset: "market", Query: "freq(S) >= 2", TimeoutMS: -1},
		http.StatusBadRequest, CodeBadRequest)
	check("/v1/datasets", marketSpec("market"), http.StatusConflict, CodeDatasetExists)
	check("/v1/datasets/nope/transactions", &MutateRequest{Transactions: [][]int{{0}}},
		http.StatusNotFound, CodeUnknownDataset)

	// Unknown fields are rejected, not silently ignored.
	status, body := postJSON(t, ts.URL+"/v1/query",
		map[string]any{"dataset": "market", "query": "freq(S) >= 2", "strateggy": "cap"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d: %s", status, body)
	}

	// Budget exhaustion: 422 with the exhausted resource and partial stats.
	er := check("/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, NoCache: true,
		Budget: &BudgetSpec{MaxCandidates: 1},
	}, http.StatusUnprocessableEntity, CodeBudgetExhausted)
	if er.Error.Resource != cfq.ResourceCandidates {
		t.Errorf("resource %q", er.Error.Resource)
	}
	if er.Error.PartialStats == nil || er.Error.PartialStats.Checkpoints == 0 {
		t.Errorf("no partial stats on budget error: %+v", er.Error)
	}
}

// TestMutationInvalidates: a dataset mutation bumps the generation, and the
// previously cached result is not served for the new data.
func TestMutationInvalidates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ask := func() *QueryResponse {
		status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{
			Dataset: "market", Query: readmeQueryText,
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		return queryResp(t, body)
	}
	first := ask()
	if second := ask(); !second.Cached {
		t.Error("repeat query missed the cache")
	}

	status, body := postJSON(t, ts.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: [][]int{{0, 3}, {0, 3}, {0, 3}}})
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, body)
	}
	var dr DatasetsResponse
	if err := json.Unmarshal(body, &dr); err != nil || dr.Dataset == nil {
		t.Fatalf("mutate response: %s", body)
	}
	if dr.Dataset.Generation != first.Generation+1 {
		t.Errorf("generation %d after mutation, want %d", dr.Dataset.Generation, first.Generation+1)
	}

	third := ask()
	if third.Cached {
		t.Error("post-mutation query served stale cache")
	}
	if third.Generation != first.Generation+1 {
		t.Errorf("query generation %d, want %d", third.Generation, first.Generation+1)
	}
	// The new answer reflects the appended transactions: item sets {0},{3}
	// gained support, so the pair count can only grow.
	var before, after cfq.Result
	if err := json.Unmarshal(first.Result, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(third.Result, &after); err != nil {
		t.Fatal(err)
	}
	if after.PairCount < before.PairCount {
		t.Errorf("pair count shrank after support-adding mutation: %d -> %d",
			before.PairCount, after.PairCount)
	}
}

// TestDatasetCRUD: list/info/drop round-trip.
func TestDatasetCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list DatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "market" {
		t.Fatalf("list: %+v", list)
	}
	info := list.Datasets[0]
	if info.Transactions != 8 || info.Items != 6 {
		t.Errorf("info: %+v", info)
	}
	if fmt.Sprint(info.Numeric) != "[Price]" || fmt.Sprint(info.Categorical) != "[Type]" {
		t.Errorf("attributes: %+v", info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/market", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drop: status %d", dresp.StatusCode)
	}
	status, _ := postJSON(t, ts.URL+"/v1/query", &QueryRequest{Dataset: "market", Query: "freq(S) >= 2"})
	if status != http.StatusNotFound {
		t.Errorf("query after drop: status %d, want 404", status)
	}
}

// TestDrainingRejects: after Shutdown begins, new query work is refused
// with 503/draining.
func TestDrainingRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: "freq(S) >= 2",
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == nil || er.Error.Code != CodeDraining {
		t.Fatalf("draining error: %s", body)
	}
}

// TestLimitsResolve: request overrides clamp against server maxima, and a
// configured maximum also caps "unbounded" (zero) requests.
func TestLimitsResolve(t *testing.T) {
	l := Limits{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     30 * time.Second,
		DefaultBudget:  BudgetSpec{MaxCandidates: 100},
		MaxBudget:      BudgetSpec{MaxCandidates: 1000, MaxFrequentSets: 50},
		DefaultPairs:   20,
		MaxPairs:       100,
	}
	cases := []struct {
		req          QueryRequest
		wantCand     int64
		wantFreq     int64
		wantTimeout  time.Duration
		wantMaxPairs int
	}{
		{QueryRequest{}, 100, 50, 10 * time.Second, 20},
		{QueryRequest{TimeoutMS: 60_000}, 100, 50, 30 * time.Second, 20},
		{QueryRequest{TimeoutMS: 5_000}, 100, 50, 5 * time.Second, 20},
		{QueryRequest{Budget: &BudgetSpec{MaxCandidates: 7}}, 7, 50, 10 * time.Second, 20},
		{QueryRequest{Budget: &BudgetSpec{MaxCandidates: 5000}}, 1000, 50, 10 * time.Second, 20},
		{QueryRequest{MaxPairs: 500}, 100, 50, 10 * time.Second, 100},
		{QueryRequest{MaxPairs: 5}, 100, 50, 10 * time.Second, 5},
	}
	for i, c := range cases {
		b, timeout := l.Resolve(&c.req)
		if b.MaxCandidates != c.wantCand || b.MaxFrequentSets != c.wantFreq {
			t.Errorf("case %d: budget %+v", i, b)
		}
		if timeout != c.wantTimeout || b.Timeout != c.wantTimeout {
			t.Errorf("case %d: timeout %v, want %v", i, timeout, c.wantTimeout)
		}
		if got := l.ResolvePairs(&c.req); got != c.wantMaxPairs {
			t.Errorf("case %d: pairs %d, want %d", i, got, c.wantMaxPairs)
		}
	}
}

// TestAdmission: slots bound concurrency, the queue bounds waiters, and the
// queue-wait deadline sheds.
func TestAdmission(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond)
	ctx := context.Background()
	if err := a.acquire(ctx, prioInteractive); err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue.
	got := make(chan error, 1)
	go func() { got <- a.acquire(ctx, prioInteractive) }()
	// Give the waiter time to join, then a second waiter overflows the
	// depth-1 queue and is shed immediately.
	deadline := time.Now().Add(time.Second)
	for a.state().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx, prioInteractive); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow acquire: %v, want ErrOverloaded", err)
	}
	a.release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	// Slot still held by the queued acquirer: a fresh waiter times out.
	start := time.Now()
	if err := a.acquire(ctx, prioInteractive); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-wait acquire: %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("shed after %v, want ~50ms queue wait", elapsed)
	}
	a.release()
}

// TestGenSpecSeed: the wire seed drives the generated transactions, not just
// the synthesized attributes — seeds 1 and 2 differ, seed 1 is reproducible.
func TestGenSpecSeed(t *testing.T) {
	reg := NewRegistry(0, false)
	txsOf := func(name string, seed int64) string {
		t.Helper()
		spec := &DatasetSpec{Name: name, Gen: &GenSpec{Transactions: 200, Items: 40, Seed: seed}}
		if _, err := reg.Create(spec); err != nil {
			t.Fatal(err)
		}
		ds, _, _, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		txs, _, _ := ds.ExportState()
		return fmt.Sprint(txs)
	}
	one, two, again := txsOf("one", 1), txsOf("two", 2), txsOf("again", 1)
	if one == two {
		t.Error("gen seeds 1 and 2 produced identical transactions")
	}
	if one != again {
		t.Error("gen seed 1 is not reproducible")
	}
}

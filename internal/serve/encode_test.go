package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/cfq"
	"repro/internal/obs"
)

// encoderBytes is what the query endpoints wrote before appendQueryResponse:
// json.NewEncoder(w).Encode of the envelope.
func encoderBytes(t *testing.T, resp *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryResponseMatchesEncoder: the hand-written envelope is byte for
// byte json.Encoder's for the same fields — ids that need HTML escaping,
// every omitempty field both present and absent, a real result, explain
// and traced report.
func TestQueryResponseMatchesEncoder(t *testing.T) {
	q, err := cfq.ParseQuery(marketDataset(t), readmeQueryText)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(obs.Options{Name: "request"}))
	p, err := q.MinSupport(2).PrepareContext(ctx, cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := p.ExplainAnalyzeContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	report := res.Report
	res.Report = nil
	result, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	explain, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []*QueryResponse{
		{Schema: SchemaVersion, RequestID: "r1"},
		{Schema: SchemaVersion, RequestID: `<id> & "quoted"`, TraceID: "0af7651916cd43dd8448eb211c80319c",
			Dataset: "m&m's <dataset>", Generation: 1 << 40, Strategy: "session",
			Cached: true, Collapsed: true, Result: result, Explain: explain, Report: report},
		{Schema: SchemaVersion, RequestID: "r2", Dataset: "market", Strategy: "optimized", Explain: explain},
		{Schema: SchemaVersion, RequestID: "r3", Dataset: "market", Strategy: "session", Result: result, Report: report},
	} {
		got, err := appendQueryResponse([]byte("prefix"), resp)
		if err != nil {
			t.Fatal(err)
		}
		if want := encoderBytes(t, resp); !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("envelope differs from json.Encoder's:\n got %s\nwant %s", got[len("prefix"):], want)
		}
	}
}

// TestDeliveriesShareResultBytes: a miss, its collapsed follower, a
// result-cache hit and a /v1/prepare handle's execution carry the same
// result bytes, and every query-endpoint body — those four, a traced query
// and both explain endpoints — is exactly what json.Encoder writes for its
// fields.
func TestDeliveriesShareResultBytes(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4, QueueWait: 5 * time.Second})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if _, err := s.Registry().Create(marketSpec("market")); err != nil {
		t.Fatal(err)
	}
	post := func(path string, req *QueryRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if w.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	inline := func() *QueryRequest {
		return &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2, Strategy: "auto"}
	}
	envelope := func(body []byte) *QueryResponse {
		t.Helper()
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		if want := encoderBytes(t, &resp); !bytes.Equal(body, want) {
			t.Errorf("body differs from json.Encoder's:\n got %s\nwant %s", body, want)
		}
		return &resp
	}

	// Miss and collapsed follower: the leader parks in admission behind a
	// held slot with its flight open, and only then does the follower start.
	if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	wg.Add(1)
	go func() { defer wg.Done(); bodies[0] = post("/v1/query", inline()) }()
	for deadline := time.Now().Add(5 * time.Second); s.adm.state().Queued < 1 || s.flights.inflight() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("leader never queued")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { defer wg.Done(); bodies[1] = post("/v1/query", inline()) }()
	time.Sleep(100 * time.Millisecond)
	s.adm.release()
	wg.Wait()
	miss, follower := envelope(bodies[0]), envelope(bodies[1])
	if miss.Cached || miss.Collapsed || !follower.Collapsed {
		t.Fatalf("leader cached/collapsed %v/%v, follower collapsed %v", miss.Cached, miss.Collapsed, follower.Collapsed)
	}

	hit := envelope(post("/v1/query", inline()))
	if !hit.Cached {
		t.Fatal("the repeat missed the result cache")
	}

	var pr PrepareResponse
	if err := json.Unmarshal(post("/v1/prepare", inline()), &pr); err != nil || pr.Handle == "" {
		t.Fatalf("prepare: %v %+v", err, pr)
	}
	prepared := envelope(post("/v1/query", &QueryRequest{Prepared: pr.Handle, NoCache: true}))

	if len(miss.Result) == 0 {
		t.Fatal("miss carries no result")
	}
	for name, resp := range map[string]*QueryResponse{"collapsed follower": follower, "result-cache hit": hit, "prepared handle": prepared} {
		if !bytes.Equal(resp.Result, miss.Result) {
			t.Errorf("%s: result bytes differ from the miss's", name)
		}
	}

	traced := inline()
	traced.Trace = true
	if resp := envelope(post("/v1/query", traced)); resp.Report == nil || !bytes.Equal(resp.Result, miss.Result) {
		t.Errorf("traced query: report %v, result equal %v", resp.Report != nil, bytes.Equal(resp.Result, miss.Result))
	}
	for _, path := range []string{"/v1/explain", "/v1/explain-analyze"} {
		if resp := envelope(post(path, inline())); len(resp.Explain) == 0 {
			t.Errorf("%s: no explain document", path)
		}
	}
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/cfq"
	"repro/internal/obs"
)

func prepareResp(t *testing.T, body []byte) *PrepareResponse {
	t.Helper()
	var resp PrepareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad prepare response: %v\n%s", err, body)
	}
	return &resp
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Error == nil {
		t.Fatalf("bad error response: %v\n%s", err, body)
	}
	return resp.Error.Code
}

// TestPrepareRoundTrip: POST /v1/prepare plans once and issues a handle;
// re-preparing the same canonical query is a cache hit with the same handle;
// executing the handle answers exactly what a direct engine run answers.
func TestPrepareRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	prep := prepareResp(t, body)
	if prep.Schema != SchemaVersion {
		t.Errorf("schema %d, want %d", prep.Schema, SchemaVersion)
	}
	if len(prep.Handle) != 17 || prep.Handle[0] != 'p' {
		t.Errorf("handle %q, want p + 16 hex chars", prep.Handle)
	}
	if prep.Strategy == "" || prep.Strategy == "auto" {
		t.Errorf("strategy %q not resolved", prep.Strategy)
	}
	if _, err := cfq.ParseStrategy(prep.Strategy); err != nil {
		t.Errorf("unparseable resolved strategy %q: %v", prep.Strategy, err)
	}
	if prep.Cached {
		t.Error("first prepare claims cached")
	}
	if prep.Plan == nil {
		t.Fatal("auto prepare has no plan decision")
	}
	if prep.Plan.Reason == "" || prep.Plan.Strategy != prep.Strategy {
		t.Errorf("decision incomplete: %+v", prep.Plan)
	}

	// Idempotent re-prepare: same canonical query, same generation ⇒ same
	// handle, served from the plan cache.
	status, body = postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("re-prepare: status %d: %s", status, body)
	}
	again := prepareResp(t, body)
	if !again.Cached {
		t.Error("re-prepare not served from plan cache")
	}
	if again.Handle != prep.Handle {
		t.Errorf("handle changed across identical prepares: %q vs %q", again.Handle, prep.Handle)
	}

	// Execute by handle.
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusOK {
		t.Fatalf("prepared query: status %d: %s", status, body)
	}
	resp := queryResp(t, body)
	if resp.Strategy != prep.Strategy {
		t.Errorf("prepared execution strategy %q, want %q", resp.Strategy, prep.Strategy)
	}
	if resp.Dataset != "market" {
		t.Errorf("dataset %q, want market", resp.Dataset)
	}
	var res cfq.Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	direct, err := cfq.ParseQuery(marketDataset(t), readmeQueryText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Run(cfq.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairCount != want.PairCount {
		t.Errorf("prepared answer %d pairs, engine %d", res.PairCount, want.PairCount)
	}
}

// TestPreparedErrors: the handle path's failure modes are structured — a
// handle is exclusive with inline query text, unknown handles are 404s, and
// /v1/explain does not accept handles.
func TestPreparedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Prepared: "pdeadbeefdeadbeef", Query: readmeQueryText})
	if status != http.StatusBadRequest {
		t.Fatalf("prepared+query: status %d, want 400: %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: "pdeadbeefdeadbeef"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown handle: status %d, want 404: %s", status, body)
	}
	if code := errorCode(t, body); code != CodeUnknownPrepared {
		t.Errorf("unknown handle code %q, want %q", code, CodeUnknownPrepared)
	}

	// Prepare a real handle, then misuse it.
	status, body = postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText,
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	prep := prepareResp(t, body)

	status, body = postJSON(t, ts.URL+"/v1/explain", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusBadRequest {
		t.Fatalf("explain by handle: status %d, want 400: %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Prepared: prep.Handle, Dataset: "other"})
	if status != http.StatusBadRequest {
		t.Fatalf("wrong dataset: status %d, want 400: %s", status, body)
	}
}

// TestPreparedStaleGeneration is the interleave contract: prepare, mutate,
// execute ⇒ the stale handle is refused with a structured 409 (the same
// generation bump that retires the result cache retires the plan), and a
// fresh prepare against the new generation issues a different handle.
func TestPreparedStaleGeneration(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	prep := prepareResp(t, body)

	status, body = postJSON(t, ts.URL+"/v1/datasets/market/transactions",
		&MutateRequest{Transactions: [][]int{{0, 3}}})
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusConflict {
		t.Fatalf("stale handle: status %d, want 409: %s", status, body)
	}
	if code := errorCode(t, body); code != CodeStaleGeneration {
		t.Errorf("stale handle code %q, want %q", code, CodeStaleGeneration)
	}

	// Stale handles are evicted eagerly: the same handle is now unknown.
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: prep.Handle})
	if status != http.StatusNotFound {
		t.Fatalf("evicted handle: status %d, want 404: %s", status, body)
	}

	// Re-preparing against the new generation works and issues a new handle.
	status, body = postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("re-prepare: status %d: %s", status, body)
	}
	fresh := prepareResp(t, body)
	if fresh.Handle == prep.Handle {
		t.Error("handle did not change across a generation bump")
	}
	if fresh.Cached {
		t.Error("post-mutation prepare claims cached")
	}
	if status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{Prepared: fresh.Handle}); status != http.StatusOK {
		t.Fatalf("fresh handle: status %d: %s", status, body)
	}
}

// TestPrepareDisabled: a server with the plan cache disabled refuses
// /v1/prepare with a structured 422 but still serves strategy auto inline.
func TestPrepareDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{PlanCacheEntries: -1, PlanCacheBytes: -1})

	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{
		Dataset: "market", Query: readmeQueryText,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("prepare on disabled cache: status %d, want 422: %s", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/query", &QueryRequest{
		Dataset: "market", Query: readmeQueryText, Strategy: "auto",
	})
	if status != http.StatusOK {
		t.Fatalf("auto query on disabled cache: status %d: %s", status, body)
	}
}

func runReportHasSpan(rep *obs.RunReport, name string) bool {
	if rep == nil {
		return false
	}
	var walk func(s *obs.SpanReport) bool
	walk = func(s *obs.SpanReport) bool {
		if s == nil {
			return false
		}
		if s.Name == name {
			return true
		}
		for _, c := range s.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(rep.Root)
}

// TestAutoPlanCacheSkipsPlanning: the first traced auto query plans (the
// trace carries a plan:decide span); the second replays the cached plan with
// no planner work at all — span absent, plan_cache hits counter up.
func TestAutoPlanCacheSkipsPlanning(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	req := &QueryRequest{Dataset: "market", Query: readmeQueryText, Strategy: "auto", Trace: true}
	status, body := postJSON(t, ts.URL+"/v1/query", req)
	if status != http.StatusOK {
		t.Fatalf("first auto query: status %d: %s", status, body)
	}
	first := queryResp(t, body)
	if first.Strategy != "auto" {
		t.Errorf("strategy label %q, want auto", first.Strategy)
	}
	if !runReportHasSpan(first.Report, "plan:decide") {
		t.Fatal("first auto query did not record a plan:decide span")
	}
	hitsBefore := s.plans.Stats().Hits

	status, body = postJSON(t, ts.URL+"/v1/query", req)
	if status != http.StatusOK {
		t.Fatalf("second auto query: status %d: %s", status, body)
	}
	second := queryResp(t, body)
	if second.Cached {
		t.Fatal("traced request served from result cache; plan-cache path untested")
	}
	if runReportHasSpan(second.Report, "plan:decide") {
		t.Error("plan-cache hit still planned: found a plan:decide span")
	}
	if hits := s.plans.Stats().Hits; hits != hitsBefore+1 {
		t.Errorf("plan cache hits %d -> %d, want +1", hitsBefore, hits)
	}

	// Both runs answer identically — and match a session run of the same text.
	status, body = postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText})
	if status != http.StatusOK {
		t.Fatalf("session query: status %d: %s", status, body)
	}
	sess := queryResp(t, body)
	var a, b, c cfq.Result
	for _, pair := range []struct {
		raw json.RawMessage
		out *cfq.Result
	}{{first.Result, &a}, {second.Result, &b}, {sess.Result, &c}} {
		if err := json.Unmarshal(pair.raw, pair.out); err != nil {
			t.Fatal(err)
		}
	}
	if a.PairCount != b.PairCount || a.PairCount != c.PairCount {
		t.Errorf("auto answers diverge: %d / %d vs session %d", a.PairCount, b.PairCount, c.PairCount)
	}
}

// TestStatzPlanner: /statz exposes the planner's decision counters and the
// plan cache occupancy.
func TestStatzPlanner(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText, Strategy: "auto"}); status != http.StatusOK {
		t.Fatalf("auto query: status %d: %s", status, body)
	}
	rec := httptest.NewRecorder()
	s.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var statz struct {
		Planner struct {
			State     json.RawMessage  `json:"state"`
			PlanCache map[string]int64 `json:"plan_cache"`
		} `json:"planner"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if len(statz.Planner.State) == 0 {
		t.Error("statz has no planner state")
	}
	if !strings.Contains(string(statz.Planner.State), "\"decisions\"") {
		t.Errorf("planner state carries no decision counts: %s", statz.Planner.State)
	}
	if statz.Planner.PlanCache["entries"] < 1 {
		t.Errorf("plan cache empty after an auto query: %+v", statz.Planner.PlanCache)
	}
}

// TestAutoRegretResolvesInversion replays the TestFig8aRegretInversion
// scenario with the planner in charge: live traffic runs strategy auto, the
// plan it leaves in the plan cache pushes the 2-var constraint, and auto's
// run counts fewer candidates than the pinned CAP baseline's. Work, not
// wall: the counters are exact, and the choice is the planner rule's
// deterministic one.
func TestAutoRegretResolvesInversion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/v1/datasets", fig8aSpec(t)); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	autoN := countedOver(t, ts.URL, "auto")
	status, body := postJSON(t, ts.URL+"/v1/prepare", &QueryRequest{Dataset: "fig8a", Query: fig8aQuery, Strategy: "auto"})
	if status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", status, body)
	}
	var pr PrepareResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Cached || pr.Strategy == "cap" || pr.Strategy == "apriori" {
		t.Errorf("planner chose %q (cached=%v), want a cached plan that pushes the 2-var constraint", pr.Strategy, pr.Cached)
	}
	capN := countedOver(t, ts.URL, "cap")
	if autoN >= capN {
		t.Errorf("auto counted %d candidates, cap %d: want auto below the inversion it is supposed to beat", autoN, capN)
	}
	t.Logf("fig8a-overlap-33 under auto: planner chose %s; counted auto %d, cap %d", pr.Strategy, autoN, capN)
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/telemetry"
	"repro/internal/obs/workload"
)

// sent is one request a delivery made, with what its record must say.
type sent struct {
	endpoint           string // "query" or "prepare"
	status             int
	traceID, requestID string // from the response envelope

	failed    bool   // budget-tripped (or 5xx): slow whatever the threshold
	executed  bool   // a plan ran: the only records that may carry plan/explain
	explains  string // ExplainReport.Strategy of the plan that ran ("" = the record's plan.strategy)
	plan      bool   // the plan that ran came from the planner (decided or replayed)
	cached    bool
	collapsed bool
	admitted  bool // went through admission: queue_wait_ms > 0
	priority  string
}

// recHarness drives one server in-process (ServeHTTP returns after the
// instrument middleware has written the record, so nothing here polls).
type recHarness struct {
	t    *testing.T
	s    *Server
	mu   sync.Mutex // the collapse delivery posts from two goroutines
	sent []*sent
}

func (h *recHarness) post(path string, v any, want sent) (*sent, []byte) {
	h.t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		h.t.Error(err) // Error, not Fatal: the collapse delivery posts off the test goroutine
	}
	w := httptest.NewRecorder()
	h.s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	var env struct {
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != want.status {
		h.t.Errorf("%s: status %d, want %d (envelope err %v): %s", path, w.Code, want.status, err, w.Body)
	}
	want.traceID, want.requestID = env.TraceID, env.RequestID
	h.mu.Lock()
	h.sent = append(h.sent, &want)
	h.mu.Unlock()
	return &want, w.Body.Bytes()
}

func (h *recHarness) query(req *QueryRequest, want sent) *sent {
	h.t.Helper()
	req.Dataset, req.MinSupport = "market", 2
	if req.Prepared == "" {
		req.Query = readmeQueryText
	}
	want.endpoint = kindQuery
	if want.status == 0 {
		want.status = http.StatusOK
	}
	if want.priority == "" {
		want.priority = "interactive"
	}
	got, _ := h.post("/v1/query", req, want)
	return got
}

// holdSlot takes the server's only worker slot; the returned func frees it.
func (h *recHarness) holdSlot() func() {
	h.t.Helper()
	if err := h.s.adm.acquire(context.Background(), prioInteractive); err != nil {
		h.t.Fatal(err)
	}
	return func() { h.s.adm.release() }
}

// ran is a request that was admitted and evaluated.
var ran = sent{executed: true, admitted: true}

// recordDeliveries are the ways a request reaches (or misses) evaluation.
var recordDeliveries = []struct {
	name       string
	queueDepth int // Config.QueueDepth (Workers is 1 throughout)
	run        func(h *recHarness)
}{
	{"inline fixed strategy", 0, func(h *recHarness) {
		want := ran
		want.explains = "optimized"
		h.query(&QueryRequest{Strategy: "optimized", NoSession: true, NoCache: true}, want)
	}},
	{"session cold", 0, func(h *recHarness) {
		want := ran
		want.explains = "apriori+"
		h.query(&QueryRequest{NoCache: true}, want)
	}},
	{"session warm", 0, func(h *recHarness) {
		want := ran
		want.explains = "apriori+"
		h.query(&QueryRequest{NoCache: true}, want)
		h.query(&QueryRequest{NoCache: true}, want)
	}},
	{"auto plan-cache miss", 0, func(h *recHarness) {
		want := ran
		want.plan = true
		h.query(&QueryRequest{Strategy: "auto", NoCache: true}, want)
	}},
	{"auto plan-cache hit", 0, func(h *recHarness) {
		want := ran
		want.plan = true
		h.query(&QueryRequest{Strategy: "auto", NoCache: true}, want)
		hits := mPlanHits.Value()
		h.query(&QueryRequest{Strategy: "auto", NoCache: true}, want)
		if mPlanHits.Value() != hits+1 {
			h.t.Error("the repeat did not replay the cached plan")
		}
	}},
	{"prepared handle", 0, func(h *recHarness) {
		_, body := h.post("/v1/prepare", &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2, Strategy: "auto"},
			sent{endpoint: "prepare", status: http.StatusOK})
		var pr PrepareResponse
		if err := json.Unmarshal(body, &pr); err != nil || pr.Handle == "" {
			h.t.Fatalf("prepare: %v: %s", err, body)
		}
		want := ran
		want.plan, want.priority = true, "batch"
		h.query(&QueryRequest{Prepared: pr.Handle, NoCache: true}, want)
	}},
	{"result-cache hit", 0, func(h *recHarness) {
		want := ran
		want.explains = "apriori+"
		h.query(&QueryRequest{}, want)
		h.query(&QueryRequest{}, sent{cached: true})
	}},
	{"collapsed follower", 4, func(h *recHarness) {
		release := h.holdSlot()
		done := make(chan *sent, 2)
		leader := ran
		leader.explains = "apriori+"
		go func() { done <- h.query(&QueryRequest{}, leader) }()
		// The leader parks in admission with its flight open; only then does
		// the second request start, so it can only follow.
		for deadline := time.Now().Add(5 * time.Second); h.s.adm.state().Queued < 1 || h.s.flights.inflight() < 1; {
			if time.Now().After(deadline) {
				h.t.Fatal("leader never queued")
			}
			time.Sleep(time.Millisecond)
		}
		collapsed := mCollapsed.Value()
		go func() { done <- h.query(&QueryRequest{}, sent{collapsed: true}) }()
		time.Sleep(100 * time.Millisecond) // let the follower park on the flight
		release()
		<-done
		<-done
		if mCollapsed.Value() != collapsed+1 {
			h.t.Fatal("the second request did not collapse onto the first")
		}
	}},
	{"429 shed", -1, func(h *recHarness) {
		defer h.holdSlot()()
		h.query(&QueryRequest{NoCache: true}, sent{status: http.StatusTooManyRequests, admitted: true})
	}},
	{"422 budget trip", 0, func(h *recHarness) {
		want := ran
		want.status, want.failed, want.explains = http.StatusUnprocessableEntity, true, "optimized"
		h.query(&QueryRequest{NoCache: true, NoSession: true, Budget: &BudgetSpec{MaxCandidates: 1}}, want)
	}},
}

// TestRecordContract holds the one per-request record over the product of
// delivery paths and sink configurations: exactly the expected lines reach
// workload.ReadDir (one per /v1/query when journaling, only slow or failed
// requests otherwise, no directory at all with both off), each joins its
// response envelope, its prune sites sum to candidates_pruned, the plan block
// rides only on requests that executed a planned plan, the admission fields
// say what happened, and a record served by /v1/slowlog is byte-for-byte the
// journal line.
func TestRecordContract(t *testing.T) {
	configs := []struct {
		name       string
		journalAll bool
		slowAfter  time.Duration // 0 = slow log off
	}{
		{"journal", true, 0},
		{"slowlog", false, time.Hour},   // unreachable threshold: only failed requests are slow
		{"both", true, time.Nanosecond}, // every request is slow
		{"neither", false, 0},
	}
	for _, d := range recordDeliveries {
		for _, c := range configs {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				// The sink's directory is WorkloadDir, else SlowLogDir.
				dir := filepath.Join(t.TempDir(), "sink")
				cfg := Config{Workers: 1, QueueDepth: d.queueDepth, QueueWait: 5 * time.Second,
					Workload: c.journalAll, SlowQuery: c.slowAfter}
				switch {
				case c.journalAll:
					cfg.WorkloadDir, cfg.SlowLogDir = dir, filepath.Join(dir, "ignored")
				case c.slowAfter > 0:
					cfg.SlowLogDir = dir
				}
				h := &recHarness{t: t, s: NewServer(cfg)}
				if _, err := h.s.Registry().Create(marketSpec("market")); err != nil {
					t.Fatal(err)
				}
				d.run(h)

				w := httptest.NewRecorder()
				h.s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/slowlog?n=128", nil))
				var slowlog struct {
					Enabled bool              `json:"enabled"`
					Records []json.RawMessage `json:"records"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &slowlog); err != nil {
					t.Fatal(err)
				}
				if err := h.s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}

				if !c.journalAll && c.slowAfter == 0 {
					if _, err := os.Stat(dir); !os.IsNotExist(err) {
						t.Errorf("a sink directory exists with both off (stat err %v)", err)
					}
					if slowlog.Enabled || len(slowlog.Records) != 0 {
						t.Errorf("slowlog = %+v with the slow log off", slowlog)
					}
					return
				}
				lines := journalLines(t, dir)
				recs, err := workload.ReadDir(dir)
				if err != nil || len(recs) != len(lines) {
					t.Fatalf("ReadDir = %d records, err %v; %d lines on disk", len(recs), err, len(lines))
				}
				byTrace := map[string]int{}
				for i, rec := range recs {
					byTrace[rec.TraceID] = i
				}
				wantLines, wantSlow := 0, 0
				for _, want := range h.sent {
					slow := c.slowAfter > 0 && (want.failed || c.slowAfter == time.Nanosecond)
					if !slow && !(c.journalAll && want.endpoint == kindQuery) {
						continue
					}
					wantLines++
					i, ok := byTrace[want.traceID]
					if !ok {
						t.Errorf("no record for the %s request (trace %s)", want.endpoint, want.traceID)
						continue
					}
					checkRecord(t, recs[i], want, slow)
					if slow {
						wantSlow++
						if !slices.ContainsFunc(slowlog.Records, func(raw json.RawMessage) bool { return bytes.Equal(raw, lines[i]) }) {
							t.Errorf("no /v1/slowlog record is byte-for-byte the journal line %s", lines[i])
						}
					}
				}
				if len(recs) != wantLines {
					t.Errorf("journal holds %d lines, want %d", len(recs), wantLines)
				}
				if len(slowlog.Records) != wantSlow || slowlog.Enabled != (c.slowAfter > 0) {
					t.Errorf("/v1/slowlog enabled=%v with %d records, want %d", slowlog.Enabled, len(slowlog.Records), wantSlow)
				}
			})
		}
	}
}

// checkRecord holds one journal record to what its request did.
func checkRecord(t *testing.T, rec *workload.Record, want *sent, slow bool) {
	t.Helper()
	kind := workload.KindRequest
	if want.endpoint == kindQuery {
		kind = workload.KindQuery
	}
	if rec.Kind != kind || rec.Endpoint != want.endpoint || rec.Schema != workload.RecordSchema {
		t.Errorf("kind/endpoint/schema = %s/%s/%d, want %s/%s", rec.Kind, rec.Endpoint, rec.Schema, kind, want.endpoint)
	}
	if rec.RequestID != want.requestID || rec.Status != want.status || rec.Dataset != "market" {
		t.Errorf("request id %q status %d dataset %q, want %q %d market", rec.RequestID, rec.Status, rec.Dataset, want.requestID, want.status)
	}
	if rec.QueryHash == "" || rec.Class == "" || (len(rec.Phases) == 0) == (kind == workload.KindQuery) {
		t.Errorf("hash %q class %q phases %v", rec.QueryHash, rec.Class, rec.Phases)
	}
	if sum := siteSum(rec); sum != rec.CandidatesPruned {
		t.Errorf("prune sites sum %d != candidates_pruned %d (%v)", sum, rec.CandidatesPruned, rec.PruneSites)
	}
	if want.executed != (rec.CandidatesPruned > 0) {
		t.Errorf("candidates_pruned = %d on a request with executed=%v", rec.CandidatesPruned, want.executed)
	}
	if (rec.Plan != nil) != want.plan {
		t.Errorf("plan = %+v, want present=%v", rec.Plan, want.plan)
	} else if want.plan && (rec.Plan.Strategy == "" || rec.Plan.Reason == "") {
		t.Errorf("plan block has no strategy or no reason: %+v", rec.Plan)
	}
	if rec.Cached != want.cached || rec.Collapsed != want.collapsed || rec.Priority != want.priority {
		t.Errorf("cached/collapsed/priority = %v/%v/%q, want %v/%v/%q",
			rec.Cached, rec.Collapsed, rec.Priority, want.cached, want.collapsed, want.priority)
	}
	if (rec.QueueWaitMS > 0) != want.admitted || rec.DegradationLevel != 0 {
		t.Errorf("queue_wait_ms = %v (admitted=%v), degradation_level = %d", rec.QueueWaitMS, want.admitted, rec.DegradationLevel)
	}
	if rec.Slow != slow || (rec.Query != "") != slow || (rec.ThresholdMS > 0) != slow {
		t.Errorf("slow=%v query=%q threshold_ms=%v, want slow=%v", rec.Slow, rec.Query, rec.ThresholdMS, slow)
	}
	if (rec.Explain != nil) != (slow && want.executed) {
		t.Fatalf("explain present=%v on a record with slow=%v executed=%v", rec.Explain != nil, slow, want.executed)
	}
	if rec.Explain != nil {
		strategy := want.explains
		if strategy == "" {
			strategy = rec.Plan.Strategy
		}
		if rec.Explain.Strategy != strategy {
			t.Errorf("explain.strategy = %q, want %q (the plan that ran)", rec.Explain.Strategy, strategy)
		}
		if got := rec.Explain.SumPruned(); got != rec.CandidatesPruned {
			t.Errorf("explain.SumPruned() = %d != candidates_pruned %d", got, rec.CandidatesPruned)
		}
		checkDescribesExplain(t, rec)
	}
}

// checkDescribesExplain holds a record's class and enforcement sites to its
// explain: both describe the plan that ran.
func checkDescribesExplain(t *testing.T, rec *workload.Record) {
	t.Helper()
	if got := workload.ClassKey(rec.Explain); rec.Class != got {
		t.Errorf("%s record: class %q, its explain's %q", rec.Strategy, rec.Class, got)
	}
	if got := workload.EnforcementSites(rec.Explain); !slices.Equal(rec.EnforcedAt, got) {
		t.Errorf("%s record: enforced_at %q, its explain's %q", rec.Strategy, rec.EnforcedAt, got)
	}
}

// TestRecordDescribesPlanThatRan: one canonical query sent in session mode,
// as cap and as apriori outside the session, and as auto leaves four slow
// records whose class and enforcement sites are those of the plan each one
// ran — not of whichever mode profiled the query first.
func TestRecordDescribesPlanThatRan(t *testing.T) {
	h := &recHarness{t: t, s: NewServer(Config{SlowQuery: time.Nanosecond})}
	defer h.s.Shutdown(context.Background())
	if _, err := h.s.Registry().Create(marketSpec("market")); err != nil {
		t.Fatal(err)
	}
	modes := []*QueryRequest{
		{},
		{Strategy: "cap", NoSession: true},
		{Strategy: "apriori", NoSession: true},
		{Strategy: "auto"},
	}
	for _, req := range modes {
		h.query(req, ran)
	}
	view := h.s.slowView()
	if len(view) != len(modes) {
		t.Fatalf("slow view holds %d records, want %d", len(view), len(modes))
	}
	explained := map[string]string{}
	for _, rec := range view {
		if rec.Explain == nil {
			t.Fatalf("%s record has no explain", rec.Strategy)
		}
		checkDescribesExplain(t, rec)
		explained[rec.Strategy] = rec.Explain.Strategy
	}
	want := map[string]string{"session": "apriori+", "cap": "cap-1var", "apriori": "apriori+", "auto": "sequential"}
	if !maps.Equal(explained, want) {
		t.Errorf("explained strategies by mode = %v, want %v", explained, want)
	}
}

// journalLines returns the raw lines of a journal directory, oldest first,
// and checks that the sink wrote nothing else there.
func journalLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if ok, _ := filepath.Match("journal-*.jsonl", e.Name()); !ok {
			t.Errorf("%s under the sink directory is not a journal segment", e.Name())
		}
	}
	var lines [][]byte
	if err := telemetry.ReadSegments(dir, "journal", func(line []byte) error {
		lines = append(lines, bytes.Clone(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRecordUnderBrownout: in the degraded state (level 1) a slow request
// still leaves its record — level and all — only the analyzed plan report is
// skipped.
func TestRecordUnderBrownout(t *testing.T) {
	h := &recHarness{t: t, s: NewServer(Config{
		SlowQuery: time.Nanosecond, MemSoftLimit: 1000, memTick: time.Millisecond,
		memProbe: func() int64 { return 1000 },
	})}
	defer h.s.Shutdown(context.Background())
	if _, err := h.s.Registry().Create(marketSpec("market")); err != nil {
		t.Fatal(err)
	}
	waitLevel(t, h.s, 1)
	want := h.query(&QueryRequest{NoCache: true}, ran)
	view := h.s.slowView()
	if len(view) != 1 || view[0].TraceID != want.traceID {
		t.Fatalf("slow view = %+v, want the one request", view)
	}
	if rec := view[0]; !rec.Slow || rec.DegradationLevel != 1 || rec.Explain != nil || rec.Query == "" || siteSum(rec) != rec.CandidatesPruned {
		t.Errorf("record under brownout = %+v", rec)
	}
}

// TestParentFormatJournal: a journal written before the slow log folded in
// (testdata/journal_parent: one auto query and the two "shadow" re-runs the
// parent's sampler appended) still loads, and its shadow lines fold into
// no rollup.
func TestParentFormatJournal(t *testing.T) {
	recs, err := workload.ReadDir(filepath.Join("testdata", "journal_parent"))
	if err != nil || len(recs) != 3 {
		t.Fatalf("ReadDir = %d records, err %v; want 3", len(recs), err)
	}
	q := recs[0]
	if q.Kind != workload.KindQuery || q.Strategy != "auto" || len(q.Phases) == 0 ||
		siteSum(q) != q.CandidatesPruned || q.CandidatesPruned != 115 {
		t.Errorf("query record = %+v", q)
	}
	if q.Endpoint != "" || q.Slow || q.Plan != nil || q.Priority != "" {
		t.Errorf("parent-format line grew fields it never had: %+v", q)
	}
	for _, sh := range recs[1:] {
		if sh.Kind != "shadow" || sh.Slow || sh.Class != q.Class {
			t.Errorf("shadow line = %+v", sh)
		}
	}
	if rolls := workload.Replay(recs).Rollups(); len(rolls) != 1 || rolls[0].Count != 1 || rolls[0].Strategies["auto"] != 1 {
		t.Errorf("rollups from the parent-format journal = %+v", rolls)
	}
}

// TestParentJournalUnderServer: a server booted over a workload directory
// holding the parent's journal serves it — GET /v1/slowlog answers with no
// record from it (neither its query nor its shadow lines were slow), the
// next request's line lands beside it in a new segment, and the directory
// still reads back as one journal whose only slow record is the new one.
func TestParentJournalUnderServer(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "journal_parent", "journal-00000001.jsonl")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Workload: true, WorkloadDir: dir, SlowQuery: time.Nanosecond})
	h := &recHarness{t: t, s: s}
	if _, err := s.Registry().Create(marketSpec("market")); err != nil {
		t.Fatal(err)
	}
	slowlog := func() *SlowlogResponse {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/slowlog", nil))
		var sl SlowlogResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sl); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET /v1/slowlog: status %d, err %v: %s", w.Code, err, w.Body)
		}
		return &sl
	}
	if sl := slowlog(); len(sl.Records) != 0 {
		t.Errorf("slow log over the parent journal = %+v, want empty", sl.Records)
	}
	want := h.query(&QueryRequest{NoCache: true}, ran)
	if sl := slowlog(); len(sl.Records) != 1 || sl.Records[0].TraceID != want.traceID {
		t.Errorf("slow log after one request = %+v, want that request", sl.Records)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs, err := workload.ReadDir(dir)
	if err != nil || len(recs) != 4 {
		t.Fatalf("ReadDir = %d records, err %v; want the parent's 3 + 1", len(recs), err)
	}
	kinds := map[string]int{}
	slow := 0
	for _, rec := range recs {
		kinds[rec.Kind]++
		if rec.Slow {
			slow++
		}
	}
	if kinds[workload.KindQuery] != 2 || kinds["shadow"] != 2 || slow != 1 || recs[3].TraceID != want.traceID {
		t.Errorf("kinds %v, %d slow, last trace %s; want 2 queries, 2 shadow lines, only %s slow",
			kinds, slow, recs[3].TraceID, want.traceID)
	}
	var queries int64
	for _, cr := range workload.Replay(recs).Rollups() {
		queries += cr.Count
	}
	if queries != 2 {
		t.Errorf("rollups count %d queries, want 2 (shadow lines are not queries)", queries)
	}
}

// TestBudgetTripPartialStatsMatchRecord: a budget-tripped query's 422
// partial_stats and its journal record report one pruned count, the sum of
// the record's prune sites, for every candidate budget that trips the
// optimizer, including trips in one side's mining after the other side
// pruned.
func TestBudgetTripPartialStatsMatchRecord(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{WorkloadDir: dir})
	if _, err := s.Registry().Create(marketSpec("market")); err != nil {
		t.Fatal(err)
	}
	partial := map[string]int64{} // trace id -> partial_stats.CandidatesPruned
	for limit := int64(1); limit <= 40; limit++ {
		b, err := json.Marshal(&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2,
			Strategy: "optimized", NoCache: true, NoSession: true, Budget: &BudgetSpec{MaxCandidates: limit}})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
		if w.Code != http.StatusUnprocessableEntity {
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.PartialStats == nil {
			t.Fatalf("MaxCandidates %d: 422 without partial_stats: %s", limit, w.Body)
		}
		partial[er.TraceID] = er.Error.PartialStats.CandidatesPruned
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, err := workload.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bothSides := 0
	for _, rec := range recs {
		want, ok := partial[rec.TraceID]
		if !ok {
			continue
		}
		delete(partial, rec.TraceID)
		if rec.CandidatesPruned != want || siteSum(rec) != want {
			t.Errorf("trace %s: partial_stats pruned %d, record %d, sites sum %d (%v)",
				rec.TraceID, want, rec.CandidatesPruned, siteSum(rec), rec.PruneSites)
		}
		var onS, onT bool
		for site := range rec.PruneSites {
			onS = onS || strings.HasPrefix(site, "S:")
			onT = onT || strings.HasPrefix(site, "T:")
		}
		if onS && onT {
			bothSides++
		}
	}
	if len(partial) != 0 {
		t.Errorf("%d budget trips left no journal record", len(partial))
	}
	if bothSides == 0 {
		t.Error("no trip came after both sides pruned; the sweep tests nothing")
	}
}

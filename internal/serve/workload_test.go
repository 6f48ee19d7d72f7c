package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/cfq"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/obs/workload"
)

func getWorkload(t *testing.T, base string) *WorkloadResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/workload")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/workload: status %d", resp.StatusCode)
	}
	var wl WorkloadResponse
	decodeInto(t, resp, &wl)
	return &wl
}

// TestWorkloadJournalContract: with the journal on, every completed query
// request — cached ones included — lands in the journal with its
// classification, feature vector, phase deltas, and per-site pruning counts
// that sum exactly to CandidatesPruned; non-query endpoints and requests
// that never built a query stay out.
func TestWorkloadJournalContract(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{WorkloadDir: dir})

	q := &QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}
	for i := 0; i < 2; i++ { // second run is a result-cache hit
		status, body := postJSON(t, ts.URL+"/v1/query", q)
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, body)
		}
	}
	// A parse failure builds no query: journaled nowhere.
	if status, _ := postJSON(t, ts.URL+"/v1/query", &QueryRequest{Dataset: "market", Query: "{bogus"}); status != http.StatusBadRequest {
		t.Fatalf("bogus query: status %d", status)
	}
	// Explain is a different endpoint: not part of the workload journal.
	if status, _ := postJSON(t, ts.URL+"/v1/explain", q); status != http.StatusOK {
		t.Fatal("explain failed")
	}

	recs := awaitJournal(t, dir, 2)
	cached := 0
	for _, rec := range recs {
		if rec.Kind != workload.KindQuery || rec.Schema != workload.RecordSchema {
			t.Errorf("record kind/schema = %s/%d", rec.Kind, rec.Schema)
		}
		if rec.Class == "" || rec.Class == "unconstrained" {
			t.Errorf("class = %q, want a constraint classification", rec.Class)
		}
		if len(rec.EnforcedAt) == 0 {
			t.Error("no enforcement sites")
		}
		if rec.Strategy != "session" || rec.Status != http.StatusOK {
			t.Errorf("strategy/status = %s/%d", rec.Strategy, rec.Status)
		}
		if rec.QueryHash == "" || len(rec.Phases) == 0 {
			t.Errorf("hash %q phases %v", rec.QueryHash, rec.Phases)
		}
		if rec.Slow || rec.Query != "" || rec.Explain != nil {
			t.Errorf("fast record carries the slow payload: %+v", rec)
		}
		if rec.Cached {
			cached++
			if rec.CandidatesPruned != 0 {
				t.Error("cached record claims pruning work")
			}
		} else if rec.CandidatesPruned == 0 {
			t.Error("uncached run pruned nothing — constraint push-down not attributed")
		}
	}
	if cached != 1 {
		t.Errorf("cached records = %d, want 1", cached)
	}

	wl := getWorkload(t, ts.URL)
	if !wl.Enabled || wl.Schema != SchemaVersion || wl.Journal == nil {
		t.Fatalf("workload envelope = %+v", wl)
	}
	if wl.Journal.Appended != 2 || len(wl.Classes) != 1 {
		t.Fatalf("journal state %+v classes %+v", wl.Journal, wl.Classes)
	}
	cr := wl.Classes[0]
	if cr.Count != 2 || cr.Cached != 1 || cr.Strategies["session"] != 2 {
		t.Errorf("rollup = %+v", cr)
	}

	// /statz carries the journal state.
	ops := httptest.NewServer(s.OpsHandler())
	defer ops.Close()
	resp, err := http.Get(ops.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	decodeInto(t, resp, &doc)
	sect, ok := doc["workload"].(map[string]any)
	if !ok || sect["enabled"] != true {
		t.Errorf("statz workload section = %v", doc["workload"])
	}
}

// awaitJournal reads the journal directory back — the path operators use —
// once it holds want records (a record is written after its response), and
// fails if it never does or holds more.
func awaitJournal(t *testing.T, dir string, want int) []*workload.Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		recs, err := workload.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == want || time.Now().After(deadline) {
			if len(recs) != want {
				t.Fatalf("journal holds %d records, want %d", len(recs), want)
			}
			return recs
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWorkloadDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}); status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	if s.workload != nil {
		t.Fatal("collector built without config")
	}
	if wl := getWorkload(t, ts.URL); wl.Enabled || wl.Journal != nil || len(wl.Classes) != 0 {
		t.Errorf("workload envelope = %+v", wl)
	}
	resp, err := http.Get(ts.URL + "/v1/workload/regret")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/workload/regret: status %d, want 404 (no regret table is served)", resp.StatusCode)
	}
}

// fig8aSpec is the committed fig8a bench point's dataset (scale 25 = 4000
// transactions over 1000 items, seed 1, uniform prices) as a wire spec, and
// fig8aQuery its 33%-overlap query: S over [400, 1000]-priced items, T over
// [0, 600], quasi-succinct max<=min across them.
func fig8aSpec(t *testing.T) *DatasetSpec {
	t.Helper()
	cfg := exp.Config{Scale: 25, Seed: 1}
	db, err := cfg.QuestDB()
	if err != nil {
		t.Fatal(err)
	}
	txs := make([][]int, db.Len())
	for i := 0; i < db.Len(); i++ {
		set := db.Transaction(i)
		tx := make([]int, 0, set.Len())
		for _, it := range set {
			tx = append(tx, int(it))
		}
		txs[i] = tx
	}
	prices := gen.UniformPrices(1000, 0, 1000, cfg.Seed+101)
	return &DatasetSpec{Name: "fig8a", Items: 1000, Transactions: txs,
		Numeric: map[string][]float64{"Price": prices}}
}

const fig8aQuery = "{(S,T) | freq(S) >= 40 & freq(T) >= 40 & range(S.Price, 400, 1000) & range(T.Price, 0, 600) & max(S.Price) <= min(T.Price)}"

// countedOver runs fig8aQuery once under strat, uncached and off the session,
// and returns the candidates the engine counted.
func countedOver(t *testing.T, base, strat string) int64 {
	t.Helper()
	status, body := postJSON(t, base+"/v1/query", &QueryRequest{
		Dataset: "fig8a", Query: fig8aQuery, Strategy: strat,
		NoSession: true, NoCache: true,
	})
	if status != http.StatusOK {
		t.Fatalf("%s query: status %d: %s", strat, status, body)
	}
	var res cfq.Result
	if err := json.Unmarshal(queryResp(t, body).Result, &res); err != nil {
		t.Fatalf("%s query: result payload: %v", strat, err)
	}
	return res.Stats.CandidatesCounted
}

// TestFig8aRegretInversion reproduces the paper's Figure 8(a) claim through
// the full service path: on the 33%-overlap point the published CAP
// baseline (1-var pushdown only, "cap" on the wire, "cap-1var" in the
// engine) counts several times the candidates of the optimized 2-var plan.
// A planner pinned to the baseline therefore carries regret by work; the
// counts are exact, so the claim carries no timing noise (the wall gap they
// cost is EXPERIMENTS.md E12's).
func TestFig8aRegretInversion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/v1/datasets", fig8aSpec(t)); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	capN, optN := countedOver(t, ts.URL, "cap"), countedOver(t, ts.URL, "optimized")
	if capN < 3*optN {
		t.Errorf("cap counted %d candidates, optimized %d (want >= 3x)", capN, optN)
	}
	t.Logf("fig8a-overlap-33: cap counted %d candidates, optimized %d (%.1fx)", capN, optN, float64(capN)/float64(optN))
}

// TestQueueWaitHistogram: the admission queue-wait histogram is labeled by
// endpoint and sees every query request, including uncontended ones.
func TestQueueWaitHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := queueWaitCount(t, kindQuery)
	if status, _ := postJSON(t, ts.URL+"/v1/query",
		&QueryRequest{Dataset: "market", Query: readmeQueryText, MinSupport: 2}); status != http.StatusOK {
		t.Fatalf("query failed: %d", status)
	}
	if after := queueWaitCount(t, kindQuery); after != before+1 {
		t.Errorf("queue-wait observations %d -> %d, want +1", before, after)
	}
}

func queueWaitCount(t *testing.T, endpoint string) int64 {
	t.Helper()
	return mQueueWait.WithLabels(endpoint).Snapshot().Count
}

package cfq

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/mine"
	"repro/internal/obs"
)

// reportStats rebuilds a public Stats from a report's counter totals.
func reportStats(rep *RunReport) Stats {
	return convertStats(mine.FromCounters(rep.Totals))
}

// TestRunReportTotalsMatchStats: for every engine strategy, a traced 2-var
// query attaches a RunReport whose per-phase deltas sum exactly to the
// run's Stats.
func TestRunReportTotalsMatchStats(t *testing.T) {
	ds := marketDataset(t)
	for _, st := range []Strategy{Optimized, OptimizedNoJmax, CAPOnly, AprioriPlus, FM, Sequential} {
		t.Run(fmt.Sprint(st), func(t *testing.T) {
			tracer := NewTracer(TracerOptions{Name: "test"})
			ctx := WithTracer(context.Background(), tracer)
			res, err := NewQuery(ds).MinSupport(2).
				Where2(Join(Max, "Price", LE, Min, "Price")).
				RunContext(ctx, st)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report == nil {
				t.Fatal("traced run has no Report")
			}
			if got := reportStats(res.Report); got != res.Stats {
				t.Errorf("report totals %+v\nresult stats  %+v", got, res.Stats)
			}
		})
	}
}

// TestRunReportSpanTree: every 2-var strategy walks the same pipeline — its
// report shows phase1, reduce, finalize and pairs at the top level in that
// order, with only the schedule's spans (the Jmax iterations, or mine-T then
// mine-S) between reduce and finalize — and names every mining level.
func TestRunReportSpanTree(t *testing.T) {
	query := func() *Query {
		return NewQuery(marketDataset(t)).MinSupport(2).
			WhereS(Range("Price", 2, 10)).
			Where2(Join(Max, "Price", LE, Min, "Price"))
	}
	var res *Result
	for _, c := range []struct {
		st       Strategy
		schedule []string // the top-level spans between reduce and finalize; nil = jmax-iter-1..n
	}{{Sequential, []string{"mine-T", "mine-S"}}, {OptimizedNoJmax, nil}, {Optimized, nil}} {
		tracer := NewTracer(TracerOptions{Name: "fig7"})
		var err error
		res, err = query().RunContext(WithTracer(context.Background(), tracer), c.st)
		if err != nil {
			t.Fatal(err)
		}
		var top []string
		for _, sp := range res.Report.Root.Children {
			// Dovetail plans both sides before its first round, so their
			// classify spans sit beside the rounds, not under one.
			if !strings.HasSuffix(sp.Name, ":classify") {
				top = append(top, sp.Name)
			}
		}
		n := len(top)
		if n < 5 || top[0] != "phase1" || top[1] != "reduce" || top[n-2] != "finalize" || top[n-1] != "pairs" {
			t.Fatalf("%v: top-level spans %v, want phase1 reduce <schedule> finalize pairs", c.st, top)
		}
		want := c.schedule
		for i := 1; c.schedule == nil && i <= n-4; i++ {
			want = append(want, fmt.Sprintf("jmax-iter-%d", i))
		}
		if got := top[2 : n-2]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%v: schedule spans %v, want %v", c.st, got, want)
		}
		for _, name := range []string{"S:level-1", "T:level-1"} {
			if res.Report.Find(name) == nil {
				t.Errorf("%v: span %q missing", c.st, name)
			}
		}
	}
	// Untraced runs carry no report and agree on the answer.
	plain, err := query().Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report != nil {
		t.Error("untraced run has a Report")
	}
	if plain.PairCount != res.PairCount || plain.Stats != res.Stats {
		t.Errorf("tracing changed the run: %+v vs %+v", plain.Stats, res.Stats)
	}
}

// TestSessionReport: session runs name the cache interactions; the second
// run's report shows cache hits and no mining spans.
func TestSessionReport(t *testing.T) {
	ds := marketDataset(t)
	s := NewSession(ds)
	q := NewQuery(ds).MinSupport(2).Where2(Join(Max, "Price", LE, Min, "Price"))

	tracer := NewTracer(TracerOptions{Name: "cold"})
	res, err := s.RunContext(WithTracer(context.Background(), tracer), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"S:cache-miss", "S:filter", "T:filter", "pairs"} {
		if res.Report.Find(name) == nil {
			t.Errorf("cold-run span %q missing", name)
		}
	}

	tracer = NewTracer(TracerOptions{Name: "warm"})
	res, err = s.RunContext(WithTracer(context.Background(), tracer), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Find("S:cache-hit") == nil || res.Report.Find("T:cache-hit") == nil {
		t.Error("warm-run report missing cache-hit spans")
	}
	if res.Report.Find("S:cache-miss") != nil {
		t.Error("warm run re-mined")
	}
	// Warm-run work is pure filtering: its report totals equal its stats.
	if got := reportStats(res.Report); got != res.Stats {
		t.Errorf("warm report totals %+v, stats %+v", got, res.Stats)
	}

	// After an append the S side carries the lattice over the new row under
	// an advance span with the usual level spans below it, and the T side
	// hits what S stored; the level spans' deltas still add up to the stats.
	if err := ds.AddTransaction(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	advances := obs.MCacheAdvances.Value()
	tracer = NewTracer(TracerOptions{Name: "advanced"})
	res, err = s.RunContext(WithTracer(context.Background(), tracer), q)
	if err != nil {
		t.Fatal(err)
	}
	adv := res.Report.Find("S:advance")
	if adv == nil || res.Report.Find("T:cache-hit") == nil || res.Report.Find("S:cache-miss") != nil {
		t.Fatal("run after an append: want S:advance and T:cache-hit, no S:cache-miss")
	}
	if adv.Attrs["delta_rows"] != 1 || len(adv.Children) < 3 || adv.Children[2].Name != "S:level-3" {
		t.Errorf("S:advance attrs %v with %d children, want delta_rows 1 over level spans", adv.Attrs, len(adv.Children))
	}
	for _, attr := range []string{"carried", "recounted", "promoted", "demoted"} {
		if _, ok := adv.Attrs[attr]; !ok {
			t.Errorf("S:advance has no %q attribute", attr)
		}
	}
	if got := reportStats(res.Report); got != res.Stats {
		t.Errorf("advanced report totals %+v, stats %+v", got, res.Stats)
	}
	if got := obs.MCacheAdvances.Value(); got != advances+1 {
		t.Errorf("session_cache_advances_total moved by %d, want 1", got-advances)
	}
}

// TestReportJSONOmitsEmpty: Result marshals without a Report field when
// untraced (the CLI's -json output shape must not change by default).
func TestReportJSONOmitsEmpty(t *testing.T) {
	res, err := NewQuery(marketDataset(t)).MinSupport(2).
		Where2(Join(Max, "Price", LE, Min, "Price")).
		Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"Report"`) {
		t.Error("untraced Result JSON contains Report")
	}
}

// TestMidRunMetricsScrape: a metrics scrape races mining without torn
// reads — run under -race, this locks in the atomic txdb scan counter and
// the lock-free registry (the satellite's concurrency property).
func TestMidRunMetricsScrape(t *testing.T) {
	ds := marketDataset(t)
	s := NewSession(ds)
	handler := obs.NewMetricsMux()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
			var vars struct {
				CFQ map[string]any `json:"cfq"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil || vars.CFQ == nil {
				t.Errorf("scrape returned no cfq snapshot: %v", err)
				return
			}
		}
	}()

	hitsBefore := s.CacheStats().Hits
	scansBefore := obs.MDBScans.Value()
	for i := 0; i < 8; i++ {
		q := NewQuery(ds).MinSupport(2).Where2(Join(Max, "Price", LE, Min, "Price"))
		if _, err := s.RunContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(Optimized); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if hits := s.CacheStats().Hits; hits <= hitsBefore {
		t.Error("session cache never hit")
	}
	if obs.MDBScans.Value() <= scansBefore {
		t.Error("db_scans_total did not move")
	}
	if obs.MQueries.Value() == 0 {
		t.Error("queries_total is zero")
	}
}

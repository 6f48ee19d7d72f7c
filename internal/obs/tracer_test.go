package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestNilSafety: a nil tracer and its nil spans absorb every call — the
// entire disabled-tracing contract.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Report() != nil || tr.Phases() != nil {
		t.Error("nil tracer reported non-nil")
	}
	if tr.Logger() != nil {
		t.Error("nil tracer has a logger")
	}
	tr.Logf("dropped %d", 1)
	sp := tr.Start("x", Int("a", 1))
	if sp != nil {
		t.Fatal("nil tracer started a span")
	}
	sp.WithStats(Counters{"c": 1})
	sp.SetAttrs(String("k", "v"))
	sp.End(Counters{"c": 2})

	ctx := WithTracer(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Error("nil tracer survived the context round-trip")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Error("FromContext(nil) != nil")
	}
}

// TestSpanNesting: spans parent under the innermost open span and the
// report reproduces the tree.
func TestSpanNesting(t *testing.T) {
	tr := NewTracer(Options{Name: "test"})
	a := tr.Start("a")
	b := tr.Start("b") // child of a: a is still open
	b.End(nil)
	a.End(nil)
	c := tr.Start("c") // child of the root again
	c.End(nil)

	rep := tr.Report()
	if rep.Name != "test" || rep.Spans != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(rep.Root.Children))
	}
	if got := rep.Root.Children[0]; got.Name != "a" || len(got.Children) != 1 || got.Children[0].Name != "b" {
		t.Errorf("first subtree = %+v", got)
	}
	if rep.Root.Children[1].Name != "c" {
		t.Errorf("second child = %q", rep.Root.Children[1].Name)
	}
	if rep.Find("b") == nil || rep.Find("missing") != nil {
		t.Error("Find misbehaved")
	}
	var names []string
	rep.Walk(func(s *SpanReport) { names = append(names, s.Name) })
	if strings.Join(names, ",") != "test,a,b,c" {
		t.Errorf("walk order = %v", names)
	}
}

// TestPhasesMatchReport: Phases is the Report tree flattened to span path →
// milliseconds — same paths, repeated paths summed, the same durations for
// closed spans — without building the tree.
func TestPhasesMatchReport(t *testing.T) {
	tr := NewTracer(Options{Name: "serve:query"})
	if tr.Phases() != nil {
		t.Error("a tracer with no spans has phases")
	}
	tr.Start("parse").End(nil)
	ev := tr.Start("evaluate")
	for i := 0; i < 2; i++ {
		lv := tr.Start("level")
		tr.Start("count").End(nil)
		lv.End(nil)
	}
	ev.End(nil)

	want := map[string]float64{}
	var walk func(prefix string, s *SpanReport)
	walk = func(prefix string, s *SpanReport) {
		for _, c := range s.Children {
			want[prefix+c.Name] += c.DurationMS
			walk(prefix+c.Name+"/", c)
		}
	}
	walk("", tr.Report().Root)
	got := tr.Phases()
	if len(got) != 4 || len(want) != 4 {
		t.Fatalf("phases = %v, report flattens to %v; want parse, evaluate, evaluate/level, evaluate/level/count", got, want)
	}
	for path, ms := range want {
		if got[path] != ms {
			t.Errorf("phase %s = %v ms, report says %v", path, got[path], ms)
		}
	}

	open := tr.Start("admission")
	if ms, ok := tr.Phases()["admission"]; !ok || ms < 0 {
		t.Errorf("open span missing from phases: %v", tr.Phases())
	}
	open.End(nil)
}

// TestSpanDeltas: WithStats + End computes the counter delta, and Report
// totals sum every span's delta.
func TestSpanDeltas(t *testing.T) {
	tr := NewTracer(Options{})
	c := Counters{"work": 5, "other": 1}
	sp := tr.Start("phase1").WithStats(Counters{"work": 5, "other": 1})
	c["work"] = 12 // 7 units of work inside the span
	sp.End(Counters{"work": c["work"], "other": c["other"]})

	sp2 := tr.Start("phase2").WithStats(Counters{"work": 12})
	sp2.End(Counters{"work": 15})

	rep := tr.Report()
	if got := rep.Find("phase1").Stats["work"]; got != 7 {
		t.Errorf("phase1 delta = %d, want 7", got)
	}
	if got := rep.Find("phase2").Stats["work"]; got != 3 {
		t.Errorf("phase2 delta = %d, want 3", got)
	}
	if got := rep.Totals["work"]; got != 10 {
		t.Errorf("totals = %d, want 10", got)
	}
	if _, ok := rep.Find("phase1").Stats["other"]; ok {
		t.Error("zero delta was recorded")
	}
}

// TestEndIdempotentAndOpenSpans: double End is a no-op; a report taken
// mid-run marks open spans.
func TestEndIdempotentAndOpenSpans(t *testing.T) {
	tr := NewTracer(Options{})
	sp := tr.Start("once").WithStats(Counters{"n": 0})
	sp.End(Counters{"n": 4})
	sp.End(Counters{"n": 100}) // ignored
	if rep := tr.Report(); rep.Find("once").Stats["n"] != 4 {
		t.Error("second End changed the delta")
	}

	open := tr.Start("open")
	rep := tr.Report()
	if s := rep.Find("open"); s == nil || !s.Open {
		t.Errorf("open span not flagged: %+v", rep.Find("open"))
	}
	if rep.Root.Open {
		t.Error("root flagged open")
	}
	open.End(nil)
	if s := tr.Report().Find("open"); s.Open {
		t.Error("ended span still flagged open")
	}
}

// TestAttrsAndJSONRoundTrip: attrs survive into the report and the report
// marshals/unmarshals cleanly.
func TestAttrsAndJSONRoundTrip(t *testing.T) {
	tr := NewTracer(Options{Name: "rt"})
	sp := tr.Start("load", String("source", "quest"), Int("items", 1000))
	sp.SetAttrs(Int64("transactions", 10000), Float("frac", 0.01))
	sp.End(nil)

	rep := tr.Report()
	attrs := rep.Find("load").Attrs
	if attrs["source"] != "quest" || attrs["items"] != 1000 {
		t.Errorf("attrs = %v", attrs)
	}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "rt" || back.Spans != 1 || back.Root.Children[0].Name != "load" {
		t.Errorf("round-trip = %+v", back)
	}
}

// TestSlogEmission: each End emits one structured event carrying the span
// path, duration, attrs, and stats group.
func TestSlogEmission(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(Options{Name: "run", Logger: logger})

	outer := tr.Start("outer")
	inner := tr.Start("inner", Int("k", 7)).WithStats(Counters{"candidates_counted": 10})
	inner.End(Counters{"candidates_counted": 25})
	outer.End(nil)
	tr.Logf("note %d", 42)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d log lines, want 3:\n%s", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["span"] != "run/outer/inner" || ev["k"] != float64(7) {
		t.Errorf("inner event = %v", ev)
	}
	stats, _ := ev["stats"].(map[string]any)
	if stats["candidates_counted"] != float64(15) {
		t.Errorf("stats group = %v", ev["stats"])
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["span"] != "run/outer" {
		t.Errorf("outer event = %v", ev)
	}
	if !strings.Contains(lines[2], "note 42") {
		t.Errorf("Logf line = %s", lines[2])
	}
}

// TestCountersOps: Minus drops zeros, Add accumulates.
func TestCountersOps(t *testing.T) {
	d := Counters{"a": 5, "b": 2, "c": 2}.Minus(Counters{"a": 3, "c": 2})
	if len(d) != 2 || d["a"] != 2 || d["b"] != 2 {
		t.Errorf("Minus = %v", d)
	}
	sum := Counters{"a": 1}
	sum.Add(Counters{"a": 2, "b": 3})
	if sum["a"] != 3 || sum["b"] != 3 {
		t.Errorf("Add = %v", sum)
	}
}

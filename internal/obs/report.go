package obs

import "time"

// RunReport is the machine-readable summary of one traced evaluation: the
// span tree with per-span wall time and work-counter deltas, plus the
// counter totals (the sum of every span delta — by the attribution
// contract this equals the run's total mine.Stats for engine-driven runs).
// It marshals to stable JSON for the cmd/cfq -report flag and the served
// "trace": true envelope.
// ReportSchema is the current RunReport / ExplainReport wire version.
// Bump it when a field changes meaning or shape; trajectory tooling keys
// off it to parse old snapshots.
const ReportSchema = 1

type RunReport struct {
	// Schema versions the JSON shape (ReportSchema).
	Schema int `json:"schema"`
	// Name is the root span's label.
	Name string `json:"name"`
	// Start is when the tracer was created.
	Start time.Time `json:"start"`
	// DurationMS is the wall time from tracer creation to Report.
	DurationMS float64 `json:"duration_ms"`
	// Spans counts the spans recorded (excluding the root).
	Spans int `json:"spans"`
	// Totals is the sum of every span's counter delta.
	Totals Counters `json:"totals,omitempty"`
	// Root is the span tree.
	Root *SpanReport `json:"root"`
}

// SpanReport is the serializable form of one span.
type SpanReport struct {
	Name string `json:"name"`
	// DurationMS is the span's wall time; for spans still open at Report
	// time (e.g. after an aborted run) it extends to the report instant.
	DurationMS float64 `json:"duration_ms"`
	// Open marks spans that had not ended when the report was taken.
	Open bool `json:"open,omitempty"`
	// Attrs are the span's annotations.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Stats is the span's work-counter delta.
	Stats Counters `json:"stats,omitempty"`
	// Children are the nested phase spans, in start order.
	Children []*SpanReport `json:"children,omitempty"`
}

// Report snapshots the span tree. It may be taken mid-run (open spans are
// reported with their duration so far) and does not mutate the tracer, so a
// caller can keep tracing afterwards. A nil tracer reports nil.
func (t *Tracer) Report() *RunReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	rep := &RunReport{
		Schema:     ReportSchema,
		Name:       t.root.name,
		Start:      t.start,
		DurationMS: ms(now.Sub(t.start)),
		Spans:      t.count,
		Totals:     Counters{},
	}
	rep.Root = buildSpanReport(t.root, now, rep.Totals)
	if len(rep.Totals) == 0 {
		rep.Totals = nil
	}
	return rep
}

func buildSpanReport(s *Span, now time.Time, totals Counters) *SpanReport {
	sr := &SpanReport{Name: s.name}
	end := s.end
	if !s.ended {
		sr.Open = s.parent != nil // the root is open by design; don't flag it
		end = now
	}
	sr.DurationMS = ms(end.Sub(s.start))
	if len(s.attrs) > 0 {
		sr.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			sr.Attrs[a.Key] = a.Value
		}
	}
	if len(s.delta) > 0 {
		sr.Stats = Counters{}
		sr.Stats.Add(s.delta)
		totals.Add(s.delta)
	}
	for _, c := range s.children {
		sr.Children = append(sr.Children, buildSpanReport(c, now, totals))
	}
	return sr
}

// Phases flattens the span tree into span path (relative to the root) →
// wall milliseconds, repeated paths summed and open spans extended to now —
// the per-request record's phase breakdown, without building a RunReport.
// A tracer with no spans (or a nil one) reports nil.
func (t *Tracer) Phases() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return nil
	}
	now := time.Now()
	out := make(map[string]float64, t.count)
	var walk func(prefix string, s *Span)
	walk = func(prefix string, s *Span) {
		for _, c := range s.children {
			path := prefix + c.name
			end := c.end
			if !c.ended {
				end = now
			}
			out[path] += ms(end.Sub(c.start))
			walk(path+"/", c)
		}
	}
	walk("", t.root)
	return out
}

// Walk visits every span of the report tree depth-first, parents before
// children.
func (r *RunReport) Walk(fn func(*SpanReport)) {
	if r == nil || r.Root == nil {
		return
	}
	var walk func(*SpanReport)
	walk = func(s *SpanReport) {
		fn(s)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(r.Root)
}

// Find returns the first span with the given name, or nil.
func (r *RunReport) Find(name string) *SpanReport {
	var found *SpanReport
	r.Walk(func(s *SpanReport) {
		if found == nil && s.Name == name {
			found = s
		}
	})
	return found
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package mine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// distinctStats fills every Stats field with a distinct non-zero value so a
// field dropped by Add/Minus/Counters/String shows up as a mismatch.
func distinctStats(t *testing.T) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats field %s is %v; update the stats tests",
				v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(100 + i))
	}
	return s
}

// TestStatsAddMinusEveryField: Add and Minus must cover every field —
// reflection catches a field added to Stats but forgotten in either.
func TestStatsAddMinusEveryField(t *testing.T) {
	s := distinctStats(t)
	sum := s
	sum.Add(s)
	v := reflect.ValueOf(sum)
	orig := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() != 2*orig.Field(i).Int() {
			t.Errorf("Add dropped field %s", v.Type().Field(i).Name)
		}
	}
	if diff := sum.Minus(s); diff != s {
		t.Errorf("Minus dropped a field: %+v", diff)
	}
	if diff := s.Minus(s); diff != (Stats{}) {
		t.Errorf("Minus(self) = %+v", diff)
	}
}

// TestStatsCountersRoundTrip: Counters/FromCounters is a bijection over
// every field, and the counter names match the obs vocabulary.
func TestStatsCountersRoundTrip(t *testing.T) {
	s := distinctStats(t)
	c := s.Counters()
	if len(c) != reflect.TypeOf(s).NumField() {
		t.Errorf("Counters has %d keys for %d fields", len(c), reflect.TypeOf(s).NumField())
	}
	if back := FromCounters(c); back != s {
		t.Errorf("round-trip = %+v, want %+v", back, s)
	}
	for k := range c {
		if strings.ToLower(k) != k || strings.Contains(k, " ") {
			t.Errorf("counter key %q is not snake_case", k)
		}
	}
}

// TestStatsStringEveryValue: the one-line rendering mentions every field's
// value.
func TestStatsStringEveryValue(t *testing.T) {
	s := distinctStats(t)
	str := s.String()
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if !strings.Contains(str, fmt.Sprintf("=%d", v.Field(i).Int())) {
			t.Errorf("String() missing field %s: %s", v.Type().Field(i).Name, str)
		}
	}
}

// TestSpanDeltasSumToTotals: the miner's attribution contract — run it on
// a small Quest database under a tracer and require the sum of every span's
// counter delta (RunReport.Totals) to reproduce the run's total Stats
// exactly.
func TestSpanDeltasSumToTotals(t *testing.T) {
	p := gen.Default(200) // 500 transactions
	p.Seed = 5
	db, err := gen.Quest(p)
	if err != nil {
		t.Fatal(err)
	}
	minSup := 10

	miners := []struct {
		name string
		run  func(ctx context.Context, stats *Stats) error
	}{
		{"levelwise", func(ctx context.Context, stats *Stats) error {
			_, err := AllFrequent(ctx, db, minSup, nil, nil, stats)
			return err
		}},
	}
	wantSpans := map[string][]string{
		"levelwise": {"level-1", "level-2", "level-3"},
	}
	for _, m := range miners {
		t.Run(m.name, func(t *testing.T) {
			tracer := obs.NewTracer(obs.Options{Name: m.name})
			ctx := obs.WithTracer(context.Background(), tracer)
			stats := &Stats{}
			if err := m.run(ctx, stats); err != nil {
				t.Fatal(err)
			}
			rep := tracer.Report()
			if got := FromCounters(rep.Totals); got != *stats {
				t.Errorf("span deltas sum to %+v\nrun totals are  %+v", got, *stats)
			}
			for _, name := range wantSpans[m.name] {
				if rep.Find(name) == nil {
					t.Errorf("span %q missing from report", name)
				}
			}
			// Re-running without a tracer must produce identical stats
			// (instrumentation is observation only).
			plain := &Stats{}
			if err := m.run(context.Background(), plain); err != nil {
				t.Fatal(err)
			}
			if *plain != *stats {
				t.Errorf("tracing changed the work: traced %+v, plain %+v", *stats, *plain)
			}
		})
	}
}

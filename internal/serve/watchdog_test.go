package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func waitLevel(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.degradeLevel() != want {
		if time.Now().After(deadline) {
			t.Fatalf("degradation level %d never reached %d", s.degradeLevel(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func resultCacheMax(s *Server) int64 { return s.cache.Stats().MaxBytes }

// TestWatchdogBrownoutLadder drives the memory watchdog with a synthetic
// probe through the full brownout ladder and back: pause diagnostics at
// level 1, shrink caches at level 2, shed non-interactive admissions at
// level 3, then recover in reverse order with hysteresis once the pressure
// lifts — ending exactly where it started.
func TestWatchdogBrownoutLadder(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	s, _ := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, QueueWait: time.Second,
		MemSoftLimit: 1000, MemCheckInterval: 2 * time.Millisecond,
		memProbe: mem.Load,
	})
	fullBytes := resultCacheMax(s)
	if fullBytes <= 0 {
		t.Fatalf("result cache byte bound %d, want positive", fullBytes)
	}
	waitLevel(t, s, 0)

	// 76% of the soft limit: level 1. Diagnostics pause; admission and the
	// caches are untouched.
	mem.Store(760)
	waitLevel(t, s, 1)
	if got := resultCacheMax(s); got != fullBytes {
		t.Errorf("level 1 shrank the result cache to %d bytes", got)
	}

	// 95%: level 2 shrinks the cache byte bounds to a quarter.
	mem.Store(950)
	waitLevel(t, s, 2)
	if got := resultCacheMax(s); got != fullBytes/wdShrinkDiv {
		t.Errorf("level 2 result cache bound %d, want %d", got, fullBytes/wdShrinkDiv)
	}

	// Over the limit: level 3 sheds batch outright while interactive still
	// gets through.
	mem.Store(1100)
	waitLevel(t, s, 3)
	if got := s.adm.state().ShedFloor; got != "batch" {
		t.Errorf("level 3 shed floor %q, want \"batch\"", got)
	}
	err := s.adm.acquire(context.Background(), prioBatch)
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != shedDegraded {
		t.Errorf("batch acquire at level 3: %v, want shed reason %q", err, shedDegraded)
	}
	if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
		t.Errorf("interactive acquire at level 3: %v, want admitted", err)
	} else {
		s.adm.release()
	}

	// Pressure lifts: recovery walks the ladder back down (hysteresis takes
	// a few consecutive low samples per level) and reverses every effect.
	mem.Store(100)
	waitLevel(t, s, 0)
	if got := resultCacheMax(s); got != fullBytes {
		t.Errorf("post-recovery result cache bound %d, want %d restored", got, fullBytes)
	}
	if got := s.adm.state().ShedFloor; got != "" {
		t.Errorf("post-recovery shed floor %q, want none", got)
	}
	if err := s.adm.acquire(context.Background(), prioBatch); err != nil {
		t.Errorf("batch acquire after recovery: %v, want admitted", err)
	} else {
		s.adm.release()
	}

	// Shutdown stops the sampling goroutine and resets the level so the
	// post-drain introspection surfaces report a clean server.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s.degradeLevel(); got != 0 {
		t.Errorf("post-shutdown degradation level %d, want 0", got)
	}
}

// TestWatchdogHysteresis drives sample() by hand (the ticker is parked at
// an hour, so the loop goroutine never samples concurrently) to pin the
// exact hysteresis contract: the level rises on ONE sample over a
// threshold, but falls only after wdHystSamples consecutive samples below
// the exit threshold — a brief dip, or an interrupted run of low samples,
// holds the level.
func TestWatchdogHysteresis(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, QueueWait: time.Second,
		MemSoftLimit: 1000, MemCheckInterval: time.Hour,
		memProbe: mem.Load,
	})
	wd := s.watchdog
	sampleAt := func(heap int64) {
		mem.Store(heap)
		wd.sample()
	}

	// One sample at 76% enters level 1 immediately.
	sampleAt(760)
	if got := s.degradeLevel(); got != 1 {
		t.Fatalf("level after one high sample: %d, want 1", got)
	}
	// Exit threshold for level 1 is 750×0.85 = 637.5. Two low samples are
	// not enough...
	sampleAt(600)
	sampleAt(600)
	if got := s.degradeLevel(); got != 1 {
		t.Fatalf("level after %d low samples: %d, want 1 held", wdHystSamples-1, got)
	}
	// ...and a sample back above the exit threshold resets the count.
	sampleAt(700)
	sampleAt(600)
	sampleAt(600)
	if got := s.degradeLevel(); got != 1 {
		t.Fatalf("level after interrupted low run: %d, want 1 held", got)
	}
	// Three consecutive low samples finally step down.
	sampleAt(600)
	if got := s.degradeLevel(); got != 0 {
		t.Fatalf("level after %d consecutive low samples: %d, want 0", wdHystSamples, got)
	}

	// A straight jump over the top threshold skips intermediate levels.
	sampleAt(1200)
	if got := s.degradeLevel(); got != 3 {
		t.Fatalf("level after jump over soft limit: %d, want 3", got)
	}
	// Descent is one level at a time: wdHystSamples low samples drop 3→2,
	// not 3→0 (sample at 100 is below every exit threshold).
	for i := 0; i < wdHystSamples; i++ {
		sampleAt(100)
	}
	if got := s.degradeLevel(); got != 2 {
		t.Fatalf("level after first hysteresis window: %d, want 2 (stepwise descent)", got)
	}
}

// TestWatchdogDegradedShadowPause: level 1 pauses the one diagnostic it
// still gates — a slow record's analyzed plan report (the shadow re-runs it
// also paused are gone) — and only while it lasts: the same slow request
// before, during and after the brownout leaves a record each time, with its
// explain rebuilt at level 0 only.
func TestWatchdogDegradedShadowPause(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	h := &recHarness{t: t, s: NewServer(Config{
		SlowQuery: time.Nanosecond, MemSoftLimit: 1000, MemCheckInterval: 2 * time.Millisecond,
		memProbe: mem.Load,
	})}
	defer h.s.Shutdown(context.Background())
	if _, err := h.s.Registry().Create(marketSpec("market")); err != nil {
		t.Fatal(err)
	}
	slowRecord := func(level int) {
		t.Helper()
		waitLevel(t, h.s, level)
		want := h.query(&QueryRequest{NoCache: true}, ran)
		rec := h.s.slowView()[0]
		if rec.TraceID != want.traceID || !rec.Slow || rec.DegradationLevel != level || (rec.Explain != nil) != (level == 0) {
			t.Errorf("slow record at level %d: level %d, explain %v (want one only at level 0)",
				level, rec.DegradationLevel, rec.Explain != nil)
		}
	}
	slowRecord(0)
	mem.Store(800)
	slowRecord(1)
	mem.Store(100)
	slowRecord(0)
}

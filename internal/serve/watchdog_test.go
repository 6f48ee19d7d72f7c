package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// cacheBounds are the three byte bounds the degraded state shrinks.
type cacheBounds struct{ result, plan, session int64 }

func boundsOf(t *testing.T, s *Server) cacheBounds {
	t.Helper()
	_, sess, _, err := s.reg.Lookup("market")
	if err != nil {
		t.Fatal(err)
	}
	return cacheBounds{s.cache.Stats().MaxBytes, s.plans.Stats().MaxBytes, sess.CacheStats().LimitBytes}
}

// TestWatchdogBrownoutLadder drives the memory watchdog with a synthetic
// probe into its one degraded state and back. Below the soft limit nothing
// changes; at it, every effect applies at once — the result, plan and
// session cache bounds drop to a quarter, batch admissions are shed with
// reason "degraded" while interactive ones are admitted, and slow records
// lose their explain. Recovery restores every effect, and Shutdown leaves
// level 0.
func TestWatchdogBrownoutLadder(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	s, _ := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, QueueWait: time.Second, SlowQuery: time.Nanosecond,
		MemSoftLimit: 1000, memTick: 2 * time.Millisecond,
		memProbe: mem.Load,
	})
	h := &recHarness{t: t, s: s}
	full := boundsOf(t, s)
	if full.result <= 0 || full.plan <= 0 || full.session <= 0 {
		t.Fatalf("cache bounds %+v, want all positive", full)
	}
	slowRecord := func(level int) {
		t.Helper()
		want := h.query(&QueryRequest{NoCache: true}, ran)
		rec := s.slowView()[0]
		if rec.TraceID != want.traceID || rec.DegradationLevel != level || (rec.Explain != nil) != (level == 0) {
			t.Errorf("slow record at level %d: level %d, explain %v (want one only at level 0)",
				level, rec.DegradationLevel, rec.Explain != nil)
		}
	}
	waitLevel(t, s, 0)

	// 95% of the soft limit is still normal.
	mem.Store(950)
	time.Sleep(20 * time.Millisecond)
	if got := s.degradeLevel(); got != 0 {
		t.Fatalf("level %d below the soft limit, want 0", got)
	}

	// At the limit: one state, every effect.
	mem.Store(1000)
	waitLevel(t, s, 1)
	quarter := cacheBounds{full.result / wdShrinkDiv, full.plan / wdShrinkDiv, full.session / wdShrinkDiv}
	if got := boundsOf(t, s); got != quarter {
		t.Errorf("degraded cache bounds %+v, want %+v", got, quarter)
	}
	err := s.adm.acquire(context.Background(), prioBatch)
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != shedDegraded {
		t.Errorf("batch acquire while degraded: %v, want shed reason %q", err, shedDegraded)
	}
	if err := s.adm.acquire(context.Background(), prioInteractive); err != nil {
		t.Errorf("interactive acquire while degraded: %v, want admitted", err)
	} else {
		s.adm.release()
	}
	slowRecord(1)

	// Pressure lifts: after the hysteresis run every effect is reversed.
	mem.Store(100)
	waitLevel(t, s, 0)
	if got := boundsOf(t, s); got != full {
		t.Errorf("post-recovery cache bounds %+v, want %+v restored", got, full)
	}
	if err := s.adm.acquire(context.Background(), prioBatch); err != nil {
		t.Errorf("batch acquire after recovery: %v, want admitted", err)
	} else {
		s.adm.release()
	}
	slowRecord(0)

	// Shutdown stops the sampling goroutine and leaves the degraded state so
	// the post-drain introspection surfaces report a clean server.
	mem.Store(1000)
	waitLevel(t, s, 1)
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
// exact hysteresis contract: ONE sample at the limit enters the degraded
// state, but it is left only after wdHystSamples consecutive samples below
// the exit threshold — a brief dip, or an interrupted run of low samples,
// holds it.
func TestWatchdogHysteresis(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, QueueWait: time.Second,
		MemSoftLimit: 1000, memTick: time.Hour,
		memProbe: mem.Load,
	})
	wd := s.watchdog
	sampleAt := func(heap int64) {
		mem.Store(heap)
		wd.sample()
	}

	// One sample at the limit enters the degraded state immediately.
	sampleAt(1000)
	if got := s.degradeLevel(); got != 1 {
		t.Fatalf("level after one sample at the limit: %d, want 1", got)
	}
	// The exit threshold is 1000×0.85 = 850. A sample between it and the
	// limit holds the state; two low samples are not enough...
	sampleAt(900)
	sampleAt(800)
	sampleAt(800)
	if got := s.degradeLevel(); got != 1 {
		t.Fatalf("level after %d low samples: %d, want 1 held", wdHystSamples-1, got)
	}
	// ...and a sample back above the exit threshold resets the count.
	sampleAt(860)
	sampleAt(800)
	sampleAt(800)
	if got := s.degradeLevel(); got != 1 {
		t.Fatalf("level after interrupted low run: %d, want 1 held", got)
	}
	// Three consecutive low samples finally leave it.
	sampleAt(800)
	if got := s.degradeLevel(); got != 0 {
		t.Fatalf("level after %d consecutive low samples: %d, want 0", wdHystSamples, got)
	}
	if got := wd.transitions.Load(); got != 2 {
		t.Errorf("%d transitions, want 2 (one entry, one exit)", got)
	}
}

// TestWatchdogDegradedShadowPause: the degraded state pauses the one
// diagnostic it gates — a slow record's analyzed plan report — and only
// while it lasts: the same slow request before, during and after the
// pressure leaves a record each time, with its explain rebuilt at level 0
// only.
func TestWatchdogDegradedShadowPause(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	h := &recHarness{t: t, s: NewServer(Config{
		SlowQuery: time.Nanosecond, MemSoftLimit: 1000, memTick: 2 * time.Millisecond,
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
	mem.Store(1000)
	slowRecord(1)
	mem.Store(100)
	slowRecord(0)
}

// TestSessionLimitUnderConcurrentCreate: a dataset created while the
// watchdog retunes the session lattice-cache bound ends at the last bound
// set, not at one read before the retune. Run under -race: the bound must be
// read under the lock it is written under.
func TestSessionLimitUnderConcurrentCreate(t *testing.T) {
	r := NewRegistry(1<<20, false)
	const datasets, retunes = 16, 200
	var wg sync.WaitGroup
	for i := 0; i < datasets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.Create(marketSpec(fmt.Sprintf("d%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	var last int64
	for i := 1; i <= retunes; i++ {
		last = int64(1000 + i)
		r.SetSessionCacheLimit(last)
	}
	wg.Wait()
	for i := 0; i < datasets; i++ {
		_, sess, _, err := r.Lookup(fmt.Sprintf("d%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.CacheStats().LimitBytes; got != last {
			t.Errorf("d%d: session cache bound %d, want the last one set, %d", i, got, last)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// drain empties an admission controller's slot for the test: acquire
// without a deadline at the given class, failing the test on shed.
func mustAcquire(t *testing.T, a *admission, prio priority) {
	t.Helper()
	if err := a.acquire(context.Background(), prio); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionPriorityOrdering: a freed slot goes to the
// highest-priority waiter regardless of arrival order — the batch waiter
// that queued first still yields to the interactive waiter.
func TestAdmissionPriorityOrdering(t *testing.T) {
	a := newAdmission(1, 4, time.Second)
	mustAcquire(t, a, prioInteractive) // hold the only slot

	order := make(chan priority, 2)
	// Batch queues first...
	go func() {
		if err := a.acquire(context.Background(), prioBatch); err == nil {
			order <- prioBatch
		}
	}()
	waitQueued(t, a, 1)
	// ...then interactive.
	go func() {
		if err := a.acquire(context.Background(), prioInteractive); err == nil {
			order <- prioInteractive
		}
	}()
	waitQueued(t, a, 2)

	a.release() // slot handover: must pick interactive
	if got := <-order; got != prioInteractive {
		t.Fatalf("first grant went to %v, want interactive", got)
	}
	a.release()
	if got := <-order; got != prioBatch {
		t.Fatalf("second grant went to %v, want batch", got)
	}
	a.release()
}

func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.state().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", a.state().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionDisplacesLowerClass: a full queue makes room for an arrival
// that outranks a waiter by shedding the newest waiter of the lowest class
// below it, so sheds hit batch before interactive.
func TestAdmissionDisplacesLowerClass(t *testing.T) {
	a := newAdmission(1, 1, time.Second)
	mustAcquire(t, a, prioInteractive) // hold the only slot

	batch := make(chan error, 1)
	go func() { batch <- a.acquire(context.Background(), prioBatch) }()
	waitQueued(t, a, 1) // the queue is now full

	interactive := make(chan error, 1)
	go func() { interactive <- a.acquire(context.Background(), prioInteractive) }()
	if err := <-batch; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("displaced batch waiter: %v, want ErrOverloaded", err)
	}
	waitQueued(t, a, 1)
	a.release() // slot handover: the interactive arrival
	if err := <-interactive; err != nil {
		t.Fatalf("interactive arrival: %v, want granted", err)
	}
	a.release()

	sheds := a.state().Sheds
	if sheds["batch:"+shedQueueFull] != 1 || sheds["interactive:"+shedQueueFull] != 0 {
		t.Errorf("sheds %v, want batch:queue_full 1 and interactive:queue_full 0", sheds)
	}
}

// TestShedRetryAfterIsQueueWait: every 429 — queue full, queue wait,
// degraded — carries the queue wait as its retry_after_ms and a Retry-After
// header of at least one second: a queued request is granted or shed within
// that time.
func TestShedRetryAfterIsQueueWait(t *testing.T) {
	const queueWait = 200 * time.Millisecond
	var mem atomic.Int64
	mem.Store(100)
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, QueueWait: queueWait,
		MemSoftLimit: 1000, memTick: 2 * time.Millisecond,
		memProbe: mem.Load,
	})
	mustAcquire(t, s.adm, prioInteractive) // hold the only slot
	shed := func(prio, reason string) {
		t.Helper()
		before := s.adm.state().Sheds[prio+":"+reason]
		b, _ := json.Marshal(&QueryRequest{Dataset: "market", Query: "freq(S) >= 2 & freq(T) >= 2",
			NoCache: true, Priority: prio})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == nil {
			t.Fatalf("%s: undecodable error body (%v)", reason, err)
		}
		if resp.StatusCode != http.StatusTooManyRequests || er.Error.Code != CodeOverloaded {
			t.Fatalf("%s: status %d code %q, want 429 %s", reason, resp.StatusCode, er.Error.Code, CodeOverloaded)
		}
		if got := s.adm.state().Sheds[prio+":"+reason]; got != before+1 {
			t.Errorf("%s: %s:%s sheds %d -> %d, want one more", reason, prio, reason, before, got)
		}
		if got := er.Error.RetryAfterMS; got != queueWait.Milliseconds() {
			t.Errorf("%s: retry_after_ms %d, want the queue wait %d", reason, got, queueWait.Milliseconds())
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Errorf("%s: Retry-After %q, want >= 1", reason, resp.Header.Get("Retry-After"))
		}
	}

	// An interactive waiter fills the depth-1 queue; an interactive arrival
	// cannot displace it.
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() { waiter <- s.adm.acquire(ctx, prioInteractive) }()
	waitQueued(t, s.adm, 1)
	shed("interactive", shedQueueFull)
	cancel()
	<-waiter

	shed("interactive", shedQueueWait)

	mem.Store(1100) // over the soft limit: the degraded state sheds batch outright
	waitLevel(t, s, 1)
	shed("batch", shedDegraded)
	mem.Store(100)
	waitLevel(t, s, 0)
	s.adm.release()
}

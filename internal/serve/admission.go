package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded is returned when the wait queue is full (or a higher class
// displaced the request from it), a queued request's queue-wait deadline
// expires, or the memory watchdog is shedding batch work; the handler maps
// it to 429 with a Retry-After hint.
var ErrOverloaded = errors.New("serve: server overloaded")

// mShedClass breaks server_shed_total down by priority class and reason, so
// an overload's ordering (batch first, interactive last) is visible on one
// scrape.
var mShedClass = obs.NewCounterVec("server_shed_class_total", "class", "reason")

// priority orders admission classes: lower value wins a freed slot first and
// is shed last. Interactive /v1/query traffic outranks prepared/batch work.
type priority int

const (
	prioInteractive priority = iota
	prioBatch
	numPriorities
)

func (p priority) String() string {
	switch p {
	case prioInteractive:
		return "interactive"
	case prioBatch:
		return "batch"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// parsePriority maps the wire spellings of QueryRequest.Priority. The empty
// string is "no override" (the endpoint's default class).
func parsePriority(s string) (priority, error) {
	switch s {
	case "interactive":
		return prioInteractive, nil
	case "batch":
		return prioBatch, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// overloadError is one shed decision: why, and the retry hint.
type overloadError struct {
	reason string
	retry  time.Duration
}

func (e *overloadError) Error() string {
	return "serve: server overloaded (" + e.reason + ")"
}

// Is makes errors.Is(err, ErrOverloaded) hold for every shed reason.
func (e *overloadError) Is(target error) bool { return target == ErrOverloaded }

// Message is the human form sent in the 429 body.
func (e *overloadError) Message() string {
	switch e.reason {
	case shedQueueFull:
		return "all workers busy and queue full"
	case shedQueueWait:
		return "queued past the queue-wait deadline"
	case shedDegraded:
		return "server is shedding low-priority work under memory pressure"
	}
	return "server overloaded"
}

// Shed reasons (the mShedClass label values).
const (
	shedQueueFull = "queue_full"
	shedQueueWait = "queue_wait"
	shedDegraded  = "degraded"
)

// waiter is one request parked in the admission queue. ch is buffered so a
// grant, a displacement or a degradation flush never blocks on a waiter
// that is busy timing out; el is the waiter's queue position (nil once
// granted or removed).
type waiter struct {
	ch   chan error
	prio priority
	el   *list.Element
}

// admission is the server's load gate: a fixed number of worker slots and
// one bounded wait queue in front of them, ordered by class (FIFO within a
// class). A freed slot goes to the oldest waiter of the highest class; a
// full queue sheds the newest waiter of the lowest class below an arrival
// to make room for it, or else the arrival. A waiter is granted or shed
// within queueWait, which is why every shed's Retry-After is queueWait.
// While the memory watchdog is degraded, batch is shed outright. Shedding
// (429) instead of queueing without bound keeps tail latency flat under
// overload.
type admission struct {
	slots     int
	depth     int
	queueWait time.Duration

	mu       sync.Mutex
	inflight int
	queues   [numPriorities]*list.List
	queued   int
	degraded bool // memory watchdog degraded: batch is shed outright

	admitted [numPriorities]int64
	sheds    [numPriorities]map[string]int64
}

func newAdmission(workers, queueDepth int, queueWait time.Duration) *admission {
	if queueWait <= 0 {
		queueWait = time.Second
	}
	a := &admission{
		slots:     max(workers, 1),
		depth:     max(queueDepth, 0),
		queueWait: queueWait,
	}
	for i := range a.queues {
		a.queues[i] = list.New()
		a.sheds[i] = map[string]int64{}
	}
	return a
}

// shedLocked counts one shed and builds its error. Callers hold a.mu.
func (a *admission) shedLocked(prio priority, reason string) *overloadError {
	mShed.Inc()
	mShedClass.WithLabels(prio.String(), reason).Inc()
	a.sheds[prio][reason]++
	return &overloadError{reason: reason, retry: a.queueWait}
}

// removeLocked takes a still-queued waiter off its queue. Callers hold a.mu.
func (a *admission) removeLocked(w *waiter) {
	a.queues[w.prio].Remove(w.el)
	w.el = nil
	a.queued--
	mQueued.Add(-1)
}

// acquire admits the request, queues it, or sheds it.
func (a *admission) acquire(ctx context.Context, prio priority) error {
	a.mu.Lock()
	if prio == prioBatch && a.degraded {
		err := a.shedLocked(prio, shedDegraded)
		a.mu.Unlock()
		return err
	}
	if a.inflight < a.slots && a.queued == 0 {
		a.inflight++
		a.admitted[prio]++
		a.mu.Unlock()
		return nil
	}
	if a.queued >= a.depth && !a.displaceLocked(prio) {
		err := a.shedLocked(prio, shedQueueFull)
		a.mu.Unlock()
		return err
	}
	w := &waiter{ch: make(chan error, 1), prio: prio}
	w.el = a.queues[prio].PushBack(w)
	a.queued++
	mQueued.Add(1)
	a.mu.Unlock()

	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case err := <-w.ch:
		return err
	case <-timer.C:
		if !a.abandon(w) {
			// Raced a grant or a shed: the outcome is already in the
			// channel. A grant just as the timer fired still wins.
			return <-w.ch
		}
		a.mu.Lock()
		err := a.shedLocked(prio, shedQueueWait)
		a.mu.Unlock()
		return err
	case <-ctx.Done():
		if !a.abandon(w) {
			if err := <-w.ch; err == nil {
				// Granted concurrently with the cancellation: hand the slot
				// back so it is not leaked.
				a.release()
			}
		}
		return ctx.Err()
	}
}

// displaceLocked makes room in a full queue for an arrival of class prio by
// shedding the newest waiter of the lowest class below it. It reports false
// when every waiter is of prio's class or above. Callers hold a.mu.
func (a *admission) displaceLocked(prio priority) bool {
	for p := numPriorities - 1; p > prio; p-- {
		if el := a.queues[p].Back(); el != nil {
			w := el.Value.(*waiter)
			a.removeLocked(w)
			w.ch <- a.shedLocked(p, shedQueueFull)
			return true
		}
	}
	return false
}

// abandon removes a still-queued waiter. Returns false when the waiter was
// already granted or shed (its channel holds the outcome).
func (a *admission) abandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.el == nil {
		return false
	}
	a.removeLocked(w)
	return true
}

// release returns a slot, handing it to the oldest waiter of the highest
// class if any.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for prio := range a.queues {
		if el := a.queues[prio].Front(); el != nil {
			// Slot handover: inflight is unchanged, the waiter now owns it.
			w := el.Value.(*waiter)
			a.removeLocked(w)
			a.admitted[prio]++
			w.ch <- nil
			return
		}
	}
	a.inflight--
}

// shedBatch turns the memory watchdog's batch shed on or off. Turning it on
// also flushes the batch waiters already queued with an overload error (they
// must not ride out queue-wait while the watchdog is trying to free memory).
func (a *admission) shedBatch(on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.degraded = on
	if !on {
		return
	}
	for el := a.queues[prioBatch].Front(); el != nil; el = a.queues[prioBatch].Front() {
		w := el.Value.(*waiter)
		a.removeLocked(w)
		w.ch <- a.shedLocked(prioBatch, shedDegraded)
	}
}

// AdmissionState is the /statz "admission" block.
type AdmissionState struct {
	Workers    int              `json:"workers"`
	Inflight   int              `json:"inflight"`
	Queued     int              `json:"queued"`
	Admitted   map[string]int64 `json:"admitted"`
	Sheds      map[string]int64 `json:"sheds,omitempty"`
	RetryAfter float64          `json:"retry_after_ms"`
}

// state snapshots the gate for /statz and the soak assertions.
func (a *admission) state() AdmissionState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AdmissionState{
		Workers:    a.slots,
		Inflight:   a.inflight,
		Queued:     a.queued,
		Admitted:   map[string]int64{},
		Sheds:      map[string]int64{},
		RetryAfter: float64(a.queueWait) / float64(time.Millisecond),
	}
	for prio := prioInteractive; prio < numPriorities; prio++ {
		if a.admitted[prio] > 0 {
			st.Admitted[prio.String()] = a.admitted[prio]
		}
		for reason, n := range a.sheds[prio] {
			st.Sheds[prio.String()+":"+reason] += n
		}
	}
	return st
}

package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Admission errors.
var (
	// ErrOverloaded is returned when the wait queue is full, a queued
	// request's queue-wait deadline expires, the projected queue wait would
	// consume the request's own deadline, or the server is degraded enough to
	// shed the request's priority class; the handler maps it to 429 with a
	// Retry-After hint.
	ErrOverloaded = errors.New("serve: server overloaded")
)

// Admission metrics. server_shed_total stays the aggregate; the vec breaks
// sheds down by priority class and reason so an overload's ordering
// (batch first, interactive last) is visible on one scrape.
var (
	mShedClass = obs.NewCounterVec("server_shed_class_total", "class", "reason")
	mAdmLimit  = obs.NewGauge("server_admission_limit")
)

// priority orders admission classes: lower value wins a freed slot first and
// is shed last. Interactive /v1/query traffic outranks prepared/batch work.
type priority int

const (
	prioInteractive priority = iota
	prioBatch
	numPriorities // sentinel: "shed nothing" floor
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

// overloadError is one shed decision: why, at what degradation level, and
// the load-derived retry hint computed at shed time.
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
	case shedDeadline:
		return "projected queue wait exceeds the request deadline; shed early"
	case shedDegraded:
		return "server is shedding low-priority work under memory pressure"
	}
	return "server overloaded"
}

// Shed reasons (the mShedClass label values).
const (
	shedQueueFull = "queue_full"
	shedQueueWait = "queue_wait"
	shedDeadline  = "deadline"
	shedDegraded  = "degraded"
)

// Service-time window and AIMD cadence. The ring keeps the most recent
// observed service times with their timestamps; the p95 over the last
// admSampleTTL drives both the concurrency limit and the retry hints, so a
// storm's slow samples age out once traffic recovers.
const (
	admWindow      = 128
	admSampleTTL   = 10 * time.Second
	admAdjustEvery = 250 * time.Millisecond
)

// admSample is one completed evaluation's service time.
type admSample struct {
	ms   float64
	when time.Time
}

// waiter is one request parked in the admission queue. ch is buffered so a
// grant or a degradation flush never blocks on a waiter that is busy timing
// out; el is the waiter's queue position (nil once granted/abandoned).
type waiter struct {
	ch   chan error
	prio priority
	el   *list.Element
}

// admission is the server's load regulator: an adaptive concurrency limit
// (AIMD: the limit decays multiplicatively while measured p95 service time
// exceeds the target latency SLO, and recovers additively toward the
// configured worker count once it is back under), priority-classed FIFO
// wait queues in front of it, and deadline-aware rejection — a request
// whose projected queue wait would consume its own deadline is shed
// immediately with an honest Retry-After instead of being admitted to do
// doomed work. Shedding early (429) instead of queueing without bound keeps
// tail latency flat under overload; the closed-loop load generator
// demonstrates the flat knee.
type admission struct {
	queueWait time.Duration
	depth     int
	target    time.Duration // latency SLO; <= 0 disables adaptation

	mu        sync.Mutex
	base      int // configured Workers: the limit's ceiling
	min       int // AIMD floor: max(1, base/4)
	limit     int
	inflight  int
	queues    [numPriorities]*list.List
	queued    int
	shedFloor priority // classes >= shedFloor are shed outright (degradation)

	samples    [admWindow]admSample
	sampleN    int // total samples ever recorded (ring write cursor)
	lastAdjust time.Time

	admitted [numPriorities]int64
	sheds    [numPriorities]map[string]int64
}

func newAdmission(workers, queueDepth int, queueWait, target time.Duration) *admission {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if queueWait <= 0 {
		queueWait = time.Second
	}
	a := &admission{
		queueWait: queueWait,
		depth:     queueDepth,
		target:    target,
		base:      workers,
		min:       max(workers/4, 1),
		limit:     workers,
		shedFloor: numPriorities,
	}
	for i := range a.queues {
		a.queues[i] = list.New()
		a.sheds[i] = map[string]int64{}
	}
	mAdmLimit.Set(int64(workers))
	return a
}

// shedLocked counts one shed and builds its error with the current retry
// hint. Callers hold a.mu.
func (a *admission) shedLocked(prio priority, reason string) *overloadError {
	mShed.Inc()
	mShedClass.WithLabels(prio.String(), reason).Inc()
	a.sheds[prio][reason]++
	return &overloadError{reason: reason, retry: a.retryAfterLocked(prio)}
}

// acquire admits the request, queues it (FIFO within its class, higher
// classes granted first), or sheds it. budget is the request's soft
// deadline (0 = none): when the projected queue wait already exceeds it,
// the request is shed immediately rather than admitted to time out.
func (a *admission) acquire(ctx context.Context, prio priority, budget time.Duration) error {
	a.mu.Lock()
	if prio >= a.shedFloor {
		err := a.shedLocked(prio, shedDegraded)
		a.mu.Unlock()
		return err
	}
	if a.inflight < a.limit && a.queued == 0 {
		a.inflight++
		a.admitted[prio]++
		a.mu.Unlock()
		return nil
	}
	if a.queued >= a.depth {
		err := a.shedLocked(prio, shedQueueFull)
		a.mu.Unlock()
		return err
	}
	if budget > 0 {
		if wait := a.projectedWaitLocked(prio); wait > budget {
			err := a.shedLocked(prio, shedDeadline)
			a.mu.Unlock()
			return err
		}
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
			// Raced a grant or a degradation flush: the outcome is already
			// in the channel. A grant just as the timer fired still wins.
			if err := <-w.ch; err != nil {
				return err
			}
			return nil
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
				a.release(0)
			}
		}
		return ctx.Err()
	}
}

// abandon removes a still-queued waiter. Returns false when the waiter was
// already granted or flushed (its channel holds the outcome).
func (a *admission) abandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.el == nil {
		return false
	}
	a.queues[w.prio].Remove(w.el)
	w.el = nil
	a.queued--
	mQueued.Add(-1)
	return true
}

// popWaiterLocked dequeues the highest-priority waiter (FIFO within a
// class). Callers hold a.mu.
func (a *admission) popWaiterLocked() *waiter {
	for prio := range a.queues {
		if el := a.queues[prio].Front(); el != nil {
			w := el.Value.(*waiter)
			a.queues[prio].Remove(el)
			w.el = nil
			a.queued--
			mQueued.Add(-1)
			return w
		}
	}
	return nil
}

// release returns a slot, hands it to the best queued waiter if any, and —
// when served is positive — records the service time and runs the AIMD
// adjustment at its rate limit. The controller is event-driven (no
// goroutine): under load there are releases to drive it, and with no load
// there is nothing to adapt.
func (a *admission) release(served time.Duration) {
	a.mu.Lock()
	if served > 0 {
		a.samples[a.sampleN%admWindow] = admSample{ms: float64(served) / float64(time.Millisecond), when: time.Now()}
		a.sampleN++
		a.maybeAdjustLocked()
	}
	if w := a.popWaiterLocked(); w != nil {
		// Slot handover: inflight is unchanged, the waiter now owns it.
		a.admitted[w.prio]++
		w.ch <- nil
	} else {
		a.inflight--
	}
	a.mu.Unlock()
}

// maybeAdjustLocked is the AIMD step, rate-limited to once per
// admAdjustEvery: while the fresh-sample p95 exceeds the target the limit
// decays by a quarter (floored at min); once p95 is comfortably under
// (80% of target) it recovers one slot at a time toward the configured
// worker count. The limit only ever moves below the configured Workers —
// the fixed cap remains the ceiling, so a server provisioned for N slots
// never runs more than N evaluations. Callers hold a.mu.
func (a *admission) maybeAdjustLocked() {
	if a.target <= 0 {
		return
	}
	now := time.Now()
	if now.Sub(a.lastAdjust) < admAdjustEvery {
		return
	}
	a.lastAdjust = now
	p95 := a.p95Locked(now)
	if p95 <= 0 {
		return
	}
	targetMS := float64(a.target) / float64(time.Millisecond)
	switch {
	case p95 > targetMS && a.limit > a.min:
		a.limit -= max(a.limit/4, 1)
		if a.limit < a.min {
			a.limit = a.min
		}
	case p95 < 0.8*targetMS && a.limit < a.base:
		a.limit++
		// A raised limit may open room for queued work right now.
		for a.inflight < a.limit {
			w := a.popWaiterLocked()
			if w == nil {
				break
			}
			a.inflight++
			a.admitted[w.prio]++
			w.ch <- nil
		}
	}
	mAdmLimit.Set(int64(a.limit))
}

// p95Locked interpolates the 95th percentile over samples younger than
// admSampleTTL, in milliseconds (0 with no fresh samples). Callers hold
// a.mu.
func (a *admission) p95Locked(now time.Time) float64 {
	n := a.sampleN
	if n > admWindow {
		n = admWindow
	}
	fresh := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if s := a.samples[i]; now.Sub(s.when) <= admSampleTTL {
			fresh = append(fresh, s.ms)
		}
	}
	if len(fresh) == 0 {
		return 0
	}
	sort.Float64s(fresh)
	idx := int(float64(len(fresh)-1) * 0.95)
	return fresh[idx]
}

// projectedWaitLocked estimates how long a new arrival of class prio would
// queue: the waiters it must let pass (higher and equal classes) plus its
// own turn, served at p95 pace across the current limit. Callers hold a.mu.
func (a *admission) projectedWaitLocked(prio priority) time.Duration {
	p95 := a.p95Locked(time.Now())
	if p95 <= 0 {
		return 0
	}
	ahead := 0
	for p := prioInteractive; p <= prio && p < numPriorities; p++ {
		ahead += a.queues[p].Len()
	}
	return time.Duration(p95 * float64(ahead+1) / float64(max(a.limit, 1)) * float64(time.Millisecond))
}

// retryAfterLocked is the load-derived Retry-After hint: the measured p95
// service time × the work ahead of a retry (everything queued plus
// everything in flight), spread across the current limit. It grows with
// queue depth and with service time under sustained overload. With no
// fresh samples (cold server) it falls back to half the queue-wait.
// Clamped to [100ms, 30s]. Callers hold a.mu.
func (a *admission) retryAfterLocked(prio priority) time.Duration {
	p95 := a.p95Locked(time.Now())
	var d time.Duration
	if p95 <= 0 {
		d = a.queueWait / 2
	} else {
		d = time.Duration(p95 * float64(a.queued+a.inflight+1) / float64(max(a.limit, 1)) * float64(time.Millisecond))
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// retryAfter is the hint for sheds decided outside acquire (none today,
// but the statz surface and tests read it).
func (a *admission) retryAfter(prio priority) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked(prio)
}

// setShedFloor sets the degradation floor: classes at or above floor are
// shed on arrival, and waiters already queued in those classes are flushed
// with an overload error immediately (they must not ride out queue-wait
// while the watchdog is trying to free memory).
func (a *admission) setShedFloor(floor priority) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shedFloor = floor
	for prio := floor; prio < numPriorities; prio++ {
		for {
			el := a.queues[prio].Front()
			if el == nil {
				break
			}
			w := el.Value.(*waiter)
			a.queues[prio].Remove(el)
			w.el = nil
			a.queued--
			mQueued.Add(-1)
			w.ch <- a.shedLocked(prio, shedDegraded)
		}
	}
}

// AdmissionState is the /statz "admission" block.
type AdmissionState struct {
	Limit      int              `json:"limit"`
	Workers    int              `json:"workers"`
	Floor      int              `json:"floor"`
	Inflight   int              `json:"inflight"`
	Queued     int              `json:"queued"`
	TargetMS   float64          `json:"target_ms,omitempty"`
	P95MS      float64          `json:"p95_ms,omitempty"`
	ShedFloor  string           `json:"shed_floor,omitempty"` // lowest class currently shed; absent when none
	Admitted   map[string]int64 `json:"admitted"`
	Sheds      map[string]int64 `json:"sheds,omitempty"`
	RetryAfter float64          `json:"retry_after_ms"`
}

// state snapshots the controller for /statz and the soak assertions.
func (a *admission) state() AdmissionState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AdmissionState{
		Limit:      a.limit,
		Workers:    a.base,
		Floor:      a.min,
		Inflight:   a.inflight,
		Queued:     a.queued,
		TargetMS:   float64(a.target) / float64(time.Millisecond),
		P95MS:      a.p95Locked(time.Now()),
		Admitted:   map[string]int64{},
		Sheds:      map[string]int64{},
		RetryAfter: float64(a.retryAfterLocked(prioInteractive)) / float64(time.Millisecond),
	}
	if a.shedFloor < numPriorities {
		st.ShedFloor = a.shedFloor.String()
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

// shedCount returns the total sheds of one class (soak assertions).
func (a *admission) shedCount(prio priority) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, v := range a.sheds[prio] {
		n += v
	}
	return n
}

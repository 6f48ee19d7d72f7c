package serve

import (
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The memory back-pressure watchdog: a sampling goroutine (only started
// when Config.MemSoftLimit > 0) compares live heap use against the soft
// limit and degrades the server instead of letting it run into the OOM
// killer. One sample at or over the limit enters the degraded state, which
//
//   - sheds every batch admission (reason "degraded"), queued batch
//     waiters included, while interactive traffic is still admitted;
//   - shrinks the byte bounds of the result cache, the prepared-plan cache
//     and every dataset session's lattice cache to a quarter of their
//     configured sizes, evicting immediately, and forces one GC cycle to
//     return the freed space;
//   - writes slow records without rebuilding their analyzed plan report.
//
// The state is left, and every effect reversed, only after wdHystSamples
// consecutive samples below wdExitFrac of the limit, so it cannot flap at
// the boundary. The wire reports it as degradation level 1 (0 = normal).
var mDegradeLevel = obs.NewGauge("server_degradation_level")

const (
	wdExitFrac    = 0.85 // leave the degraded state below this fraction of the limit
	wdHystSamples = 3
	wdShrinkDiv   = 4
	wdInterval    = 250 * time.Millisecond
)

type watchdog struct {
	s       *Server
	soft    int64
	readMem func() int64 // test seam; defaults to live heap use

	done chan struct{}

	degraded    atomic.Bool
	heap        atomic.Int64
	transitions atomic.Int64

	below int // consecutive samples under the exit threshold (sampling goroutine only)
}

// liveHeap is the production memory probe: bytes of live heap the GC is
// currently retaining plus idle spans not yet returned to the OS — the
// number the kernel's accounting sees, not just the allocator's.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse + ms.StackInuse)
}

// newWatchdog builds and starts the watchdog. Callers gate on
// cfg.MemSoftLimit > 0.
func newWatchdog(s *Server, cfg Config) *watchdog {
	wd := &watchdog{
		s:       s,
		soft:    cfg.MemSoftLimit,
		readMem: cfg.memProbe,
		done:    make(chan struct{}),
	}
	if wd.readMem == nil {
		wd.readMem = liveHeap
	}
	interval := cfg.memTick
	if interval <= 0 {
		interval = wdInterval
	}
	go wd.loop(interval)
	return wd
}

// loop samples until the server's base context is cancelled (Shutdown).
// The exit path leaves the degraded state so a drain never leaves shrunken
// caches or a batch shed behind for the post-drain introspection surfaces.
func (wd *watchdog) loop(interval time.Duration) {
	defer close(wd.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-wd.s.baseCtx.Done():
			wd.set(false)
			return
		case <-t.C:
			wd.sample()
		}
	}
}

// wait blocks until the sampling goroutine has exited (Shutdown ordering:
// the watchdog stops before the stores and logs it gates are closed).
func (wd *watchdog) wait() {
	<-wd.done
}

// sample takes one memory reading: one sample at the limit enters the
// degraded state (waiting is how soft limits get blown past), leaving it
// takes wdHystSamples in a row below the exit threshold.
func (wd *watchdog) sample() {
	heap := wd.readMem()
	wd.heap.Store(heap)
	switch {
	case heap >= wd.soft:
		wd.below = 0
		wd.set(true)
	case wd.degraded.Load() && float64(heap) < float64(wd.soft)*wdExitFrac:
		wd.below++
		if wd.below >= wdHystSamples {
			wd.below = 0
			wd.set(false)
		}
	default:
		wd.below = 0
	}
}

// set enters or leaves the degraded state, applying or reversing its
// effects before it publishes the state, so whoever sees the state sees its
// effects (only the sampling goroutine calls set). The slow-record effect is
// checked at its use site via Server.degradeLevel.
func (wd *watchdog) set(degraded bool) {
	if wd.degraded.Load() == degraded {
		return
	}
	s := wd.s
	level, div := int64(0), int64(1)
	if degraded {
		level, div = 1, wdShrinkDiv
	}
	s.adm.shedBatch(degraded)
	s.cache.SetMaxBytes(s.cfg.ResultCacheBytes / div)
	s.plans.SetMaxBytes(s.cfg.PlanCacheBytes / div)
	if s.cfg.SessionCacheBytes > 0 {
		s.reg.SetSessionCacheLimit(max(s.cfg.SessionCacheBytes/div, 1))
	}
	wd.degraded.Store(degraded)
	wd.transitions.Add(1)
	mDegradeLevel.Set(level)
	if s.log != nil {
		s.log.Warn("memory watchdog state change",
			slog.Bool("degraded", degraded),
			slog.Int64("heap_bytes", wd.heap.Load()), slog.Int64("soft_limit_bytes", wd.soft))
	}
	if degraded {
		// The evictions above only help once the GC returns the space.
		runtime.GC()
	}
}

// degradeLevel is the server's degradation level: 1 while the watchdog holds
// the degraded state, else 0. Checked on the path it gates (slow records'
// plan reports) and reported in shed bodies and records so clients can tell
// overload from memory pressure.
func (s *Server) degradeLevel() int {
	if s.watchdog == nil || !s.watchdog.degraded.Load() {
		return 0
	}
	return 1
}

// degradationStatz is the /statz "degradation" block.
func (s *Server) degradationStatz() map[string]any {
	out := map[string]any{
		"enabled": s.watchdog != nil,
		"level":   s.degradeLevel(),
	}
	if wd := s.watchdog; wd != nil {
		out["soft_limit_bytes"] = wd.soft
		out["heap_bytes"] = wd.heap.Load()
		out["transitions"] = wd.transitions.Load()
	}
	return out
}

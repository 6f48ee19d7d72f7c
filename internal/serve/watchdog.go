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
// limit and browns the server out progressively instead of letting it run
// into the OOM killer:
//
//	level 1 (~75% of soft limit): pause diagnostics — slow records are
//	        written without rebuilding their analyzed plan report.
//	level 2 (~90%): shrink the byte bounds of the result cache, the
//	        prepared-plan cache, and every dataset session's lattice cache
//	        to a quarter of their configured sizes, evicting immediately,
//	        and force one GC cycle to return the freed space.
//	level 3 (>= 100%): shed every non-interactive (batch) admission
//	        until memory recovers.
//
// Recovery walks back down in reverse order with hysteresis: a level is
// left only after wdHystSamples consecutive samples below 85% of its entry
// threshold, so the ladder cannot flap at a boundary.
var mDegradeLevel = obs.NewGauge("server_degradation_level")

// Degradation thresholds as fractions of the soft limit, indexed by level.
var wdEnterFrac = [4]float64{0, 0.75, 0.90, 1.0}

const (
	wdExitScale    = 0.85 // leave a level below enterFrac×this
	wdHystSamples  = 3
	wdShrinkDiv    = 4
	wdMaxLevel     = 3
	defaultMemTick = 250 * time.Millisecond
)

type watchdog struct {
	s        *Server
	soft     int64
	interval time.Duration
	readMem  func() int64 // test seam; defaults to live heap use

	done chan struct{}

	level       atomic.Int32
	heap        atomic.Int64
	transitions atomic.Int64

	// Sampling-loop state (single goroutine; no locking needed).
	below  int
	shrunk bool
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
		s:        s,
		soft:     cfg.MemSoftLimit,
		interval: cfg.MemCheckInterval,
		readMem:  cfg.memProbe,
		done:     make(chan struct{}),
	}
	if wd.interval <= 0 {
		wd.interval = defaultMemTick
	}
	if wd.readMem == nil {
		wd.readMem = liveHeap
	}
	go wd.loop()
	return wd
}

// loop samples until the server's base context is cancelled (Shutdown).
// The exit path restores level 0 so a drain never leaves shrunken caches
// or a shed floor behind for the post-drain introspection surfaces.
func (wd *watchdog) loop() {
	defer close(wd.done)
	t := time.NewTicker(wd.interval)
	defer t.Stop()
	for {
		select {
		case <-wd.s.baseCtx.Done():
			wd.setLevel(0)
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

// sample takes one memory reading and moves the degradation level: up
// immediately (one sample over a threshold is actionable — waiting is how
// soft limits get blown past), down only with hysteresis.
func (wd *watchdog) sample() {
	heap := wd.readMem()
	wd.heap.Store(heap)
	frac := float64(heap) / float64(wd.soft)
	cur := int(wd.level.Load())
	target := 0
	for lvl := wdMaxLevel; lvl >= 1; lvl-- {
		if frac >= wdEnterFrac[lvl] {
			target = lvl
			break
		}
	}
	switch {
	case target > cur:
		wd.below = 0
		wd.setLevel(target)
	case cur > 0 && frac < wdEnterFrac[cur]*wdExitScale:
		wd.below++
		if wd.below >= wdHystSamples {
			wd.below = 0
			wd.setLevel(cur - 1)
		}
	default:
		wd.below = 0
	}
}

// setLevel applies one level's effects (and reverses them on the way
// down). Level-1 effects are checked at their use sites via
// Server.degradeLevel; level 2 and 3 flip state here.
func (wd *watchdog) setLevel(level int) {
	prev := int(wd.level.Swap(int32(level)))
	if prev == level {
		return
	}
	wd.transitions.Add(1)
	mDegradeLevel.Set(int64(level))
	s := wd.s
	if level >= 2 && !wd.shrunk {
		wd.shrunk = true
		s.cache.SetMaxBytes(s.cfg.ResultCacheBytes / wdShrinkDiv)
		s.plans.SetMaxBytes(s.cfg.PlanCacheBytes / wdShrinkDiv)
		if s.cfg.SessionCacheBytes > 0 {
			s.reg.SetSessionCacheLimit(max(s.cfg.SessionCacheBytes/wdShrinkDiv, 1))
		}
		// The evictions above only help once the GC returns the space.
		runtime.GC()
	} else if level < 2 && wd.shrunk {
		wd.shrunk = false
		s.cache.SetMaxBytes(s.cfg.ResultCacheBytes)
		s.plans.SetMaxBytes(s.cfg.PlanCacheBytes)
		if s.cfg.SessionCacheBytes > 0 {
			s.reg.SetSessionCacheLimit(s.cfg.SessionCacheBytes)
		}
	}
	if level >= 3 {
		s.adm.setShedFloor(prioBatch)
	} else {
		s.adm.setShedFloor(numPriorities)
	}
	if s.log != nil {
		s.log.Warn("memory watchdog level change",
			slog.Int("level", level), slog.Int("previous", prev),
			slog.Int64("heap_bytes", wd.heap.Load()), slog.Int64("soft_limit_bytes", wd.soft))
	}
}

// degradeLevel is the server's current brownout level (0 = none). Checked
// on the path it gates (slow records' plan reports) and reported in shed
// bodies so clients can tell overload from brownout.
func (s *Server) degradeLevel() int {
	if s.watchdog == nil {
		return 0
	}
	return int(s.watchdog.level.Load())
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
		out["check_interval_ms"] = float64(wd.interval) / float64(time.Millisecond)
	}
	return out
}

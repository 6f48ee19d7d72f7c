package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// PruneSet accumulates per-site pruning attribution for one evaluation: a
// map from constraint-site key to the number of candidates that site
// discarded. Sites are dot-free strings of the form
// "<label>:<stage>[:<constraint>]" — e.g. "S:frequency",
// "S:candidate-filter:sum(S.Price) <= 30", "pairs:max(S.A) <= min(T.B)".
//
// A site is charged through its handle: Site resolves a name to a
// *PruneSite once — when a miner, filter or pass is built — and the hot loop
// holds the handle and Adds to it, an atomic add with no lookup. A site
// resolved but never charged is not a site of the evaluation: Snapshot,
// Sites and Total leave it out, so resolving up front changes no report.
//
// Attribution contract (the pruning analogue of the span-delta contract):
// every candidate an engine drops increments mine.Stats.CandidatesPruned
// exactly once AND is charged to exactly one PruneSet site, so the sum of
// every site's count reproduces the run's total pruned candidates. Tests
// assert the equality across all miners and strategies.
//
// Like the Tracer, a nil *PruneSet ignores every call — it resolves every
// name to a nil *PruneSite, whose Add does nothing — so instrumented code
// pays one pointer comparison when pruning attribution is disabled.
type PruneSet struct {
	mu    sync.Mutex
	sites map[string]*PruneSite
}

// PruneSite is one site's counter in a PruneSet. A nil site ignores Add.
type PruneSite struct {
	n atomic.Int64
}

// NewPruneSet creates an empty pruning-attribution set.
func NewPruneSet() *PruneSet {
	return &PruneSet{sites: map[string]*PruneSite{}}
}

// Site returns the handle of the named site, creating it on first use; every
// call with the same name returns the same handle. A nil set returns nil.
func (p *PruneSet) Site(name string) *PruneSite {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sites[name]
	if s == nil {
		s = &PruneSite{}
		p.sites[name] = s
	}
	return s
}

// Add attributes n pruned candidates to the site. Nil-safe; n <= 0 is a
// no-op so callers can charge computed deltas unconditionally.
func (s *PruneSite) Add(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.n.Add(n)
}

// Snapshot returns a copy of the per-site counts of every charged site. A nil
// set snapshots nil.
func (p *PruneSet) Snapshot() Counters {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(Counters, len(p.sites))
	for k, s := range p.sites {
		if v := s.n.Load(); v > 0 {
			out[k] = v
		}
	}
	return out
}

// Total returns the sum over all sites. A nil set totals zero.
func (p *PruneSet) Total() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var t int64
	for _, s := range p.sites {
		t += s.n.Load()
	}
	return t
}

// Sites returns the charged site keys in sorted order (deterministic
// rendering).
func (p *PruneSet) Sites() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.sites))
	for k, s := range p.sites {
		if s.n.Load() > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

type pruneKey struct{}

// WithPruning returns a context carrying the pruning set. A nil set returns
// ctx unchanged. Pruning attribution travels independently of the Tracer:
// -explain-analyze wants sites without necessarily logging spans.
func WithPruning(ctx context.Context, p *PruneSet) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, pruneKey{}, p)
}

// PruningFromContext returns the pruning set carried by ctx, or nil.
func PruningFromContext(ctx context.Context) *PruneSet {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(pruneKey{}).(*PruneSet)
	return p
}

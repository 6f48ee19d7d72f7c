package cap

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/mine"
	"repro/internal/obs"
)

// LatticeSource supplies a cached unconstrained lattice in place of mining —
// a session's cache. It is handed the configuration a miss must mine with
// (complete: no MaxLevel) and may return a lattice mined at a lower
// threshold than cfg.MinSupport.
type LatticeSource func(ctx context.Context, cfg mine.Config) (*Lattice, error)

// Lattice is a cached unconstrained frequent lattice: every set with its
// support, level by level in the miner's order. Its sets never change, so
// what a query would otherwise compute from them on every run is built once,
// on first use, and kept beside them: per numeric attribute, each set's min,
// max and sum and the sets' positions sorted by them (Columns). With those a
// constraint bounding an aggregate is a binary search (FilterLattice), and
// pair formation reads its T side's key order instead of sorting the keys.
//
// A Lattice is safe for concurrent use.
type Lattice struct {
	sets []mine.Counted
	// starts[k-1] is the position of the first set of size k or more.
	starts []int
	// minSupport is the lowest support of any set: a query at or below it
	// prunes nothing by support.
	minSupport int

	mu    sync.Mutex
	attrs map[*float64]*Columns // by the attribute's backing array
	// bytes is what the columns and orders built so far take; built is
	// called after each build, once bytes counts it.
	bytes atomic.Int64
	built func()
}

// NewLattice wraps a complete unconstrained lattice, flattened level by
// level (what mine.Levelwise.RunAll returns, concatenated, and
// mine.Advance). built, when non-nil, is called each time columns or an
// order are built on it, after Bytes has grown by them — the hook that lets
// a cache charge them to the entry.
func NewLattice(sets []mine.Counted, built func()) *Lattice {
	l := &Lattice{sets: sets, built: built, attrs: map[*float64]*Columns{}}
	for i, c := range sets {
		k := c.Set.Len()
		if k < len(l.starts) {
			panic(fmt.Sprintf("cap: lattice set %d of size %d follows a set of size %d", i, k, len(l.starts)))
		}
		for len(l.starts) < k {
			l.starts = append(l.starts, i)
		}
		if i == 0 || c.Support < l.minSupport {
			l.minSupport = c.Support
		}
	}
	return l
}

// Sets returns the lattice's sets, level by level. Callers must not modify
// them.
func (l *Lattice) Sets() []mine.Counted { return l.sets }

// Bytes is what the columns and orders built on the lattice so far take.
func (l *Lattice) Bytes() int64 { return l.bytes.Load() }

// end is the position past the last set of size maxLevel or less (every
// set when maxLevel is 0).
func (l *Lattice) end(maxLevel int) int {
	if maxLevel <= 0 || maxLevel >= len(l.starts) {
		return len(l.sets)
	}
	return l.starts[maxLevel]
}

// Columns is one numeric attribute over a Lattice's sets: each set's min,
// max and sum by lattice position — attr.Numeric.Eval's values, so a
// constraint or a 2-var term reading them gets what evaluating it on the
// set gives — and the positions sorted by each. NaN values are left out of
// the orders: no ordered comparison holds for them.
type Columns struct {
	l             *Lattice
	once          sync.Once
	min, max, sum []float64
	byMin, byMax  []int32
	sumOnce       sync.Once
	bySum         []int32
}

// Indexable reports whether Columns hold agg of a: min, max or sum of a
// non-empty attribute.
func Indexable(agg attr.Aggregate, a attr.Numeric) bool {
	return len(a) > 0 && (agg == attr.Min || agg == attr.Max || agg == attr.Sum)
}

// Columns returns attribute a's columns over the lattice (a non-empty),
// building them and the min and max orders on the first call for a. The
// build holds no lock a caller shares; concurrent first callers wait for
// the one build.
func (l *Lattice) Columns(a attr.Numeric) *Columns {
	l.mu.Lock()
	c := l.attrs[&a[0]]
	if c == nil {
		c = &Columns{l: l}
		l.attrs[&a[0]] = c
	}
	l.mu.Unlock()
	built := false
	c.once.Do(func() {
		n := len(l.sets)
		c.min, c.max, c.sum = make([]float64, n), make([]float64, n), make([]float64, n)
		for p, s := range l.sets {
			c.min[p], _ = a.Eval(attr.Min, s.Set)
			c.max[p], _ = a.Eval(attr.Max, s.Set)
			c.sum[p], _ = a.Eval(attr.Sum, s.Set)
		}
		c.byMin, c.byMax = sortedBy(c.min), sortedBy(c.max)
		built = true
	})
	if built {
		l.grew(int64(24*len(l.sets) + 4*(len(c.byMin)+len(c.byMax))))
	}
	return c
}

// Values returns the column of agg (min, max or sum), by lattice position.
func (c *Columns) Values(agg attr.Aggregate) []float64 {
	switch agg {
	case attr.Min:
		return c.min
	case attr.Max:
		return c.max
	case attr.Sum:
		return c.sum
	}
	panic(fmt.Sprintf("cap: no lattice column for %v", agg))
}

// Order returns the lattice positions ascending by agg's column, NaN left
// out. The sum order is built on its first use.
func (c *Columns) Order(agg attr.Aggregate) []int32 {
	switch agg {
	case attr.Min:
		return c.byMin
	case attr.Max:
		return c.byMax
	case attr.Sum:
		built := false
		c.sumOnce.Do(func() { c.bySum, built = sortedBy(c.sum), true })
		if built {
			c.l.grew(int64(4 * len(c.bySum)))
		}
		return c.bySum
	}
	panic(fmt.Sprintf("cap: no lattice order for %v", agg))
}

// grew charges n bytes of columns or orders to the lattice and reports them.
func (l *Lattice) grew(n int64) {
	l.bytes.Add(n)
	if l.built != nil {
		l.built()
	}
}

// sortedBy returns the positions of vals ascending by value, NaN left out.
func sortedBy(vals []float64) []int32 {
	type kv struct {
		v float64
		p int32
	}
	kvs := make([]kv, 0, len(vals))
	for p, v := range vals {
		if !math.IsNaN(v) {
			kvs = append(kvs, kv{v, int32(p)})
		}
	}
	slices.SortFunc(kvs, func(a, b kv) int { return cmp.Compare(a.v, b.v) })
	order := make([]int32, len(kvs))
	for i, e := range kvs {
		order[i] = e.p
	}
	return order
}

// boundRun returns the run of order (positions ascending by vals) whose
// values pass b.
func boundRun(order []int32, vals []float64, b constraint.AggBound) []int32 {
	if math.IsNaN(b.C) {
		return nil
	}
	// first is the first position whose value is above C, or at it too
	// unless strict.
	first := func(strict bool) int {
		return sort.Search(len(order), func(i int) bool {
			v := vals[order[i]]
			return v > b.C || (!strict && v == b.C)
		})
	}
	switch b.Op {
	case constraint.LE:
		return order[:first(true)]
	case constraint.LT:
		return order[:first(false)]
	case constraint.GE:
		return order[first(false):]
	case constraint.GT:
		return order[first(true):]
	case constraint.EQ:
		return order[first(false):first(true)]
	}
	panic(fmt.Sprintf("cap: no run for operator %v", b.Op))
}

// searchBounds marks in keep every set among the first n with support at
// least minSup that passes all of bounds (one attribute's), and returns how
// many it marked. The sets passing one bound are a run of its order: the
// shortest run is walked, and the other bounds are read from the columns.
func (l *Lattice) searchBounds(bounds []constraint.AggBound, n, minSup int, keep []uint64) int {
	cols := l.Columns(bounds[0].Attr)
	lead := 0
	var run []int32
	for i, b := range bounds {
		if r := boundRun(cols.Order(b.Agg), cols.Values(b.Agg), b); i == 0 || len(r) < len(run) {
			lead, run = i, r
		}
	}
	// The other bounds are tested on the run, but for one that holds on its
	// column's least and greatest values with no NaN among them: the values
	// passing it are an interval, so it holds on every set.
	var others []constraint.AggBound
	for i, b := range bounds {
		order, vals := cols.Order(b.Agg), cols.Values(b.Agg)
		whole := len(order) == len(vals) && (len(order) == 0 ||
			b.Op.Cmp(vals[order[0]], b.C) && b.Op.Cmp(vals[order[len(order)-1]], b.C))
		if i != lead && !whole {
			others = append(others, b)
		}
	}
	// Every set qualifies but for the bounds unless MaxLevel cut the
	// lattice or the query's threshold is above the lattice's.
	every := n == len(l.sets) && minSup <= l.minSupport
	marked := 0
next:
	for _, p := range run {
		if !every && (int(p) >= n || l.sets[p].Support < minSup) {
			continue
		}
		for _, b := range others {
			if !b.Op.Cmp(cols.Values(b.Agg)[p], b.C) {
				continue next
			}
		}
		keep[p/64] |= 1 << (p % 64)
		marked++
	}
	return marked
}

// searchable reports whether a constraint's aggregate bounds can be searched
// in a lattice's orders.
func searchable(bounds []constraint.AggBound) bool {
	for _, b := range bounds {
		if !Indexable(b.Agg, b.Attr) {
			return false
		}
	}
	return len(bounds) > 0
}

// FilterLattice is Apriori⁺ over a cached lattice — a session's query path.
// src supplies the unconstrained lattice of the query's domain (see
// LatticeSource; a miss mines it into the run's Stats), and every set of it
// up to q.MaxLevel is held to q.MinSupport and then to the constraints in
// query order: the answer, counters and prune sites of testing each set, as
// AprioriPlus does after mining. A lattice mined at a lower threshold can
// hold sets below q.MinSupport; each is one pruned candidate charged to the
// "<label>:filter" site. The whole filter is one span of that name.
//
// When the first constraint bounds aggregates of a numeric attribute
// (constraint.AggBoundsOf: a numeric range, or min, max or sum against a
// constant) it is not tested set by set: a binary search in the lattice's
// order for one bound gives the run of sets passing it, the other bounds are
// read from the columns, and the sets it rejects are counted, not visited —
// one check and one pruned candidate each, charged to its site, as testing
// would. The later constraints are tested on its survivors only. Survivors
// are marked in a bitmap over lattice positions and collected by walking
// it, so the levels keep lattice order either way; Result.Positions says
// where each valid set sits in the lattice.
func FilterLattice(ctx context.Context, q Query, src LatticeSource) (*Result, error) {
	if q.DB == nil {
		return nil, fmt.Errorf("cap: Query.DB is nil")
	}
	stats := &mine.Stats{}
	lat, err := src(ctx, mine.Config{
		DB:         q.DB,
		MinSupport: q.MinSupport,
		Domain:     q.Domain,
		Workers:    q.Workers,
		Budget:     q.Budget,
		Stats:      stats,
		Label:      q.Label,
	})
	if err != nil {
		return nil, err
	}
	tracer, prune := obs.FromContext(ctx), obs.PruningFromContext(ctx)
	name := spanName(q.Label, "filter")
	var fsp *obs.Span
	if tracer != nil {
		fsp = tracer.Start(name, obs.Int("cached", len(lat.sets))).WithStats(stats.Counters())
	}

	sets := lat.sets[:lat.end(q.MaxLevel)]
	keep := make([]uint64, (len(sets)+63)/64)
	eligible := len(sets)
	if q.MinSupport > lat.minSupport {
		below := 0
		for _, c := range sets {
			if c.Support < q.MinSupport {
				below++
			}
		}
		eligible -= below
		stats.CandidatesPruned += int64(below)
		prune.Site(name).Add(int64(below))
	}
	checks := filterChecks(q)
	if bounds, ok := leadBounds(checks); ok {
		passed := lat.searchBounds(bounds, len(sets), q.MinSupport, keep)
		rejected := int64(eligible - passed)
		stats.SetConstraintChecks += int64(eligible)
		stats.CandidatesPruned += rejected
		prune.Site(checks[0].Site).Add(rejected)
		checks = checks[1:]
	} else {
		for p, c := range sets {
			if c.Support >= q.MinSupport {
				keep[p/64] |= 1 << (p % 64)
			}
		}
	}

	// The remaining checks meet the marked sets in lattice order; a set
	// failing one is unmarked.
	if len(checks) > 0 {
		rest := newPass(checks, stats, prune)
		for w, word := range keep {
			for ; word != 0; word &= word - 1 {
				if b := bits.TrailingZeros64(word); !rest.passes(sets[w*64+b].Set) {
					keep[w] &^= 1 << b
				}
			}
		}
	}
	kept := 0
	for _, word := range keep {
		kept += bits.OnesCount64(word)
	}

	// Collect the survivors into one exact-size array the levels window.
	all, positions := make([]mine.Counted, 0, kept), make([]int32, 0, kept)
	var levels [][]mine.Counted
	size, from := 0, 0
	flush := func() {
		if len(all) > from {
			levels[size-1] = all[from:len(all):len(all)]
		}
	}
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			p := w*64 + bits.TrailingZeros64(word)
			if k := sets[p].Set.Len(); k != size {
				flush()
				for len(levels) < k {
					levels = append(levels, nil)
				}
				size, from = k, len(all)
			}
			all = append(all, sets[p])
			positions = append(positions, int32(p))
		}
	}
	flush()
	if fsp != nil {
		fsp.SetAttrs(obs.Int("kept", kept))
		fsp.End(stats.Counters())
	}
	return &Result{Levels: levels, Stats: *stats, Lattice: lat, Positions: positions}, nil
}

// leadBounds returns the first check's aggregate bounds when a lattice can
// search them.
func leadBounds(checks []Check) ([]constraint.AggBound, bool) {
	if len(checks) == 0 {
		return nil, false
	}
	bounds, ok := constraint.AggBoundsOf(checks[0].Cond)
	return bounds, ok && searchable(bounds)
}

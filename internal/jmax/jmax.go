// Package jmax implements the iterative pruning machinery of Section 5.2:
// from the complete collection of frequent sets of some size k it derives
//
//   - Jmaxᵏ (Figure 5): an upper bound on how many elements any frequent
//     set can have beyond k, obtained from the combinatorial fact that an
//     element of a frequent (k+j)-set must appear in at least
//     C(k+j-1, k-1) frequent k-sets;
//   - Vᵏ (Figure 6): an upper bound on sum(T.B) over every frequent T-set
//     of size ≥ k, combining each element's best k-set with the top
//     co-occurring attribute values it could still absorb.
//
// The Vᵏ series drives the evolving pruning condition sum(S.A) <= Vᵏ on
// the dovetailed opposite lattice (and the analogous Aᵏ series for avg).
//
// One deliberate deviation from the paper's Figure 6, documented in
// DESIGN.md §3.3: the top-Jmax values are taken over *all* elements
// co-occurring with tᵢ rather than only those outside tᵢ's best k-set
// (E_iᵏ). An arbitrary frequent superset's extra elements are outside its
// *own* best k-subset, which need not avoid T_iᵏ, so the paper's narrower
// pool can under-bound; the wider pool is always sound and coincides with
// the paper's value in the common case.
package jmax

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/attr"
	"repro/internal/itemset"
	"repro/internal/obs"
)

// Unbounded is returned as the Jmax value when no finite bound can be
// derived (level k < 2, or an element whose membership count satisfies
// every binomial test we probe).
const Unbounded = math.MaxInt32

// Summary captures the iterative-pruning quantities derived from the
// frequent sets of one level.
type Summary struct {
	// K is the level the summary was computed from.
	K int
	// Jmax is Figure 5's bound: no frequent set exceeds K+Jmax elements.
	// Unbounded when no finite bound exists.
	Jmax int
	// V is Figure 6's bound on sum(X.B) over frequent sets of size ≥ K
	// (for the attribute passed to Summarize). +Inf when unbounded.
	V float64
	// MaxExact is the exact maximum attribute sum among the level's own
	// sets (callers combine it across levels to bound smaller sets too).
	MaxExact float64
}

// SizeBound returns the derived bound on the largest frequent set's
// cardinality, or Unbounded.
func (s *Summary) SizeBound() int {
	if s.Jmax >= Unbounded-s.K {
		return Unbounded
	}
	return s.K + s.Jmax
}

// Summarize computes the level summary from all frequent sets of size k
// (every set must have exactly k elements) and the attribute to bound sums
// of. It errors on malformed input; an empty set list yields Jmax = 0 and
// V = -Inf (no frequent set of size ≥ k exists at all).
func Summarize(sets []itemset.Set, k int, num attr.Numeric) (*Summary, error) {
	if k < 1 {
		return nil, fmt.Errorf("jmax: level k = %d < 1", k)
	}
	for i, s := range sets {
		if s.Len() != k {
			return nil, fmt.Errorf("jmax: set %d has %d elements, want %d", i, s.Len(), k)
		}
	}
	if len(sets) == 0 {
		return &Summary{K: k, Jmax: 0, V: math.Inf(-1), MaxExact: math.Inf(-1)}, nil
	}
	if k < 2 {
		// Figure 5 needs k >= 2: with k = 1 the binomial test is vacuous.
		v := math.Inf(-1)
		for _, s := range sets {
			if sum, _ := num.Eval(attr.Sum, s); sum > v {
				v = sum
			}
		}
		return &Summary{K: k, Jmax: Unbounded, V: math.Inf(1), MaxExact: v}, nil
	}

	// Per-element membership counts N_iᵏ and co-occurrence sets.
	counts := map[itemset.Item]int{}
	cooccur := map[itemset.Item]map[itemset.Item]bool{}
	bestSum := map[itemset.Item]float64{} // Sum_iᵏ
	maxExact := math.Inf(-1)
	for _, s := range sets {
		sum, _ := num.Eval(attr.Sum, s)
		if sum > maxExact {
			maxExact = sum
		}
		for _, ti := range s {
			counts[ti]++
			if counts[ti] == 1 || sum > bestSum[ti] {
				bestSum[ti] = sum
			}
			co := cooccur[ti]
			if co == nil {
				co = map[itemset.Item]bool{}
				cooccur[ti] = co
			}
			for _, e := range s {
				if e != ti {
					co[e] = true
				}
			}
		}
	}

	// J_iᵏ: the largest j with N_iᵏ >= C(k+j-1, k-1)  (Equation 1).
	jmaxAll := 0
	for _, n := range counts {
		j := 0
		for {
			need := itemset.Binomial(k+j, k-1) // test for j+1
			if int64(n) >= need && j < Unbounded {
				j++
			} else {
				break
			}
		}
		if j > jmaxAll {
			jmaxAll = j
		}
	}

	// MaxSum_iᵏ: best k-set plus the top-Jmax co-occurring values
	// (non-negative values only — adding negative values would unsoundly
	// lower the bound when fewer than Jmax extras exist).
	v := math.Inf(-1)
	for ti, co := range cooccur {
		vals := make([]float64, 0, len(co))
		for e := range co {
			vals = append(vals, num[e])
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		ms := bestSum[ti]
		for u := 0; u < jmaxAll && u < len(vals) && vals[u] > 0; u++ {
			ms += vals[u]
		}
		if ms > v {
			v = ms
		}
	}
	return &Summary{K: k, Jmax: jmaxAll, V: v, MaxExact: maxExact}, nil
}

// Series maintains the monotone bound state the dovetailed engine consults:
// the tightest Vᵏ seen so far combined with the exact per-level maxima
// (Lemma 7's non-increasing series, enforced by construction), and the
// tightest size bound.
type Series struct {
	initialized bool
	exactMax    float64 // max sum among frequent sets of completed levels
	vTail       float64 // tightest bound on sums of deeper (uncounted) sets
	sizeBound   int
	exact       bool // fed by ObserveExact: Finish also learns the exact size
	exactSize   int  // deepest level ObserveExact saw a set at
	history     []SeriesStep
}

// SeriesStep records the series state after one observed level — the raw
// material for EXPLAIN ANALYZE's per-iteration bound trajectory.
type SeriesStep struct {
	// K is the observed level.
	K int
	// Bound is Series.Bound() after folding the level in (+Inf when still
	// unbounded). After ObserveExact it is the exact maximum over levels
	// 1..K — the value Bound() takes if the lattice ends here.
	Bound float64
	// SizeBound is Series.SizeBound() after folding the level in
	// (Unbounded when none); after ObserveExact, the deepest level ≤ K that
	// holds a set.
	SizeBound int
}

// NewSeries returns a Series with no information: Bound() = +Inf.
func NewSeries() *Series {
	return &Series{vTail: math.Inf(1), exactMax: math.Inf(-1), sizeBound: Unbounded}
}

// Observe folds in one completed level's summary.
func (s *Series) Observe(sum *Summary) {
	s.initialized = true
	if sum.MaxExact > s.exactMax {
		s.exactMax = sum.MaxExact
	}
	if sum.V < s.vTail {
		s.vTail = sum.V
	}
	if sb := sum.SizeBound(); sb < s.sizeBound {
		s.sizeBound = sb
	}
	s.history = append(s.history, SeriesStep{K: sum.K, Bound: s.Bound(), SizeBound: s.sizeBound})
}

// ObserveExact folds in one completed level by its exact quantities alone:
// the largest attribute sum among the level's n sets (maxSum is ignored when
// n is 0). It is the observation for a lattice mined to completion before its
// bound is first read: no Jmaxᵏ or Vᵏ is derived (none of Summarize's
// co-occurrence bookkeeping), so the series bounds nothing until Finish,
// which makes both the sum and the size bound exact.
func (s *Series) ObserveExact(k, n int, maxSum float64) {
	s.initialized, s.exact = true, true
	if n > 0 {
		s.exactSize = k
		s.exactMax = math.Max(s.exactMax, maxSum)
	}
	s.history = append(s.history, SeriesStep{K: k, Bound: s.exactMax, SizeBound: s.exactSize})
}

// History returns the per-level bound trajectory, in observation order. The
// slice is owned by the series; callers must not mutate it.
func (s *Series) History() []SeriesStep { return s.history }

// Finish records that every level of the lattice has been observed: no
// deeper frequent sets exist, so the exact per-level maxima alone bound all
// sums and the Vᵏ tail is discarded. A series fed by ObserveExact also knows
// the deepest non-empty level, which is then the exact size bound (0 for an
// empty lattice).
func (s *Series) Finish() {
	if !s.initialized {
		return
	}
	s.vTail = math.Inf(-1)
	if s.exact {
		s.sizeBound = s.exactSize
	}
}

// Bound returns the current sound upper bound on sum(X.B) over every
// frequent set of the observed lattice: the exact maximum among completed
// levels, or the Vᵏ tail bound for sets deeper than any completed level,
// whichever is larger. +Inf before any observation.
func (s *Series) Bound() float64 {
	if !s.initialized {
		return math.Inf(1)
	}
	return math.Max(s.exactMax, s.vTail)
}

// SizeBound returns the tightest derived cardinality bound (Unbounded if
// none).
func (s *Series) SizeBound() int { return s.sizeBound }

// Attrs renders the series' current state as span annotations (prefixed, so
// one span can carry several bounds). Infinite / unbounded components are
// omitted: a span attribute should state information, not its absence.
func (s *Series) Attrs(prefix string) []obs.Attr {
	if !s.initialized {
		return nil
	}
	var out []obs.Attr
	if b := s.Bound(); !math.IsInf(b, 0) {
		out = append(out, obs.Float(prefix+"sum_bound", b))
	}
	if s.sizeBound < Unbounded {
		out = append(out, obs.Int(prefix+"size_bound", s.sizeBound))
	}
	return out
}

// Attrs renders one level summary as span annotations (Figure 5's Jmax and
// Figure 6's V for the level), prefixed like Series.Attrs.
func (s *Summary) Attrs(prefix string) []obs.Attr {
	out := []obs.Attr{obs.Int(prefix+"k", s.K)}
	if s.Jmax < Unbounded {
		out = append(out, obs.Int(prefix+"jmax", s.Jmax))
	}
	if !math.IsInf(s.V, 0) {
		out = append(out, obs.Float(prefix+"v", s.V))
	}
	return out
}

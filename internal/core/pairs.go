package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/twovar"
)

// pairCancelStride is how many units of join work (rows visited plus pairs
// tested) run between context checks in formPairs. On dense queries the
// answer space can dwarf the mining work, and a drain or query deadline
// must be able to abort mid-answer; a check is at most one row late.
const pairCancelStride = 8192

// formPairs materializes the answer: every (valid S, valid T) pair
// satisfying all 2-var constraints, S in lattice order, then T in lattice
// order. With no 2-var constraints the answer is the cross product and no
// checks are spent. Otherwise it is a join on per-set keys: each
// constraint's two terms are evaluated once per set, the pairs are counted
// (by binary search where the leading constraint is ordered), each
// rejection is attributed to the first constraint in query order that
// fails and charged to its "pairs:<constraint>" site once per constraint,
// and only then are the first MaxPairs pairs materialized (see
// pairJoin.materialize). A cancelled ctx aborts the join, leaving res
// partial.
func formPairs(ctx context.Context, q CFQ, res *Result, prune *obs.PruneSet) error {
	nS, nT := numSets(res.LevelsS), numSets(res.LevelsT)
	if len(q.Constraints2) == 0 {
		res.PairCount = int64(nS) * int64(nT)
		limit := pairLimit(q.MaxPairs, res.PairCount)
		if limit == 0 {
			return nil
		}
		res.Pairs = make([]Pair, 0, limit)
		for i := int64(0); i < limit; i++ {
			if i%pairCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: forming pairs: %w", err)
				}
			}
			si, ti := i/int64(nT), i%int64(nT)
			res.Pairs = append(res.Pairs, Pair{SI: int32(si), TI: int32(ti)})
		}
		return nil
	}

	j := pairJoin{ctx: ctx, nT: nT, checks: &res.Stats.PairChecks}
	if lead, index := latticeLead(q.Constraints2[0], res.lattices); lead != nil {
		j.terms, j.index, j.from = append(j.terms, lead), index, 1
	}
	for _, c2 := range q.Constraints2[len(j.terms):] {
		j.terms = append(j.terms, newPairTerm(c2, res.LevelsS, res.LevelsT))
	}
	if lead := j.terms[0]; j.index == nil && lead.ordered() {
		j.index = newKeyIndex(lead.keyT, lead.okT)
		j.from = 1
	}
	rowCount, err := j.count(nS)
	for _, t := range j.terms {
		// A rejected pair is one pruned answer candidate: the cost a plan
		// pays for 2-var constraints it could not push into the lattices.
		res.Stats.CandidatesPruned += t.rejected
		prune.Site(t.site).Add(t.rejected)
	}
	for _, n := range rowCount {
		res.PairCount += int64(n)
	}
	if err != nil {
		return err
	}

	limit := pairLimit(q.MaxPairs, res.PairCount)
	if limit == 0 {
		return nil
	}
	res.Pairs = make([]Pair, 0, limit)
	return j.materialize(rowCount, &res.Pairs)
}

// numSets is how many sets levels hold: the length of the list Result.ValidS
// or ValidT flattens them into.
func numSets(levels [][]mine.Counted) int {
	n := 0
	for _, level := range levels {
		n += len(level)
	}
	return n
}

// pairLimit is how many of count pairs are materialized under maxPairs
// (0 = all of them).
func pairLimit(maxPairs int, count int64) int64 {
	if maxPairs > 0 && int64(maxPairs) < count {
		return int64(maxPairs)
	}
	return count
}

// pairTerm is one 2-var constraint prepared for the join: both sides' terms
// evaluated once per valid set, by the functions Satisfies itself uses.
type pairTerm struct {
	sides twovar.Sides
	site  string
	// Aggregate form: each set's key, and whether its aggregate is defined.
	keyS, keyT []float64
	okS, okT   []bool
	// Domain form: each set's projected value set.
	setS, setT []attr.ValueSet
	// rejected counts the pairs this term was the first to fail.
	rejected int64
}

func newPairTerm(c2 twovar.Constraint2, levelsS, levelsT [][]mine.Counted) *pairTerm {
	t := &pairTerm{sides: c2.Sides(), site: "pairs:" + c2.String()}
	if t.sides.AggS == nil {
		t.setS = projections(t.sides.ProjS, levelsS)
		t.setT = projections(t.sides.ProjT, levelsT)
		return t
	}
	t.keyS, t.okS = aggKeys(t.sides.AggS, levelsS)
	t.keyT, t.okT = aggKeys(t.sides.AggT, levelsT)
	return t
}

// aggKeys evaluates agg on every set of levels, in the order of their
// flattened list; it reads the levels in place.
func aggKeys(agg func(itemset.Set) (float64, bool), levels [][]mine.Counted) ([]float64, []bool) {
	n := numSets(levels)
	keys, ok := make([]float64, n), make([]bool, n)
	i := 0
	for _, level := range levels {
		for _, c := range level {
			keys[i], ok[i] = agg(c.Set)
			i++
		}
	}
	return keys, ok
}

// projections is aggKeys for a domain term: every set's projected values.
func projections(proj func(itemset.Set) attr.ValueSet, levels [][]mine.Counted) []attr.ValueSet {
	out := make([]attr.ValueSet, 0, numSets(levels))
	for _, level := range levels {
		for _, c := range level {
			out = append(out, proj(c.Set))
		}
	}
	return out
}

// latticeLead prepares an ordered leading 2-var constraint from the cached
// lattices both sides were filtered from, when their columns hold its two
// aggregates: each valid set's key is read from its lattice's column instead
// of evaluated, and the T side's index is the lattice's order of that column
// with the positions that hold no valid T-set left out — a filter, not a
// sort. Nil otherwise.
func latticeLead(c2 twovar.Constraint2, lattices [2]latticeSide) (*pairTerm, *keyIndex) {
	sides := c2.Sides()
	if sides.AggS == nil || sides.Op == constraint.NE {
		return nil, nil
	}
	lt := lattices[twovar.SideT]
	colsT := lt.columns(sides.KindT, sides.AttrT)
	if colsT == nil {
		return nil, nil
	}
	ls := lattices[twovar.SideS]
	colsS := ls.columns(sides.KindS, sides.AttrS)
	if colsS == nil {
		return nil, nil
	}
	valuesT := colsT.Values(sides.KindT)
	t := &pairTerm{sides: sides, site: "pairs:" + c2.String()}
	t.keyS, t.okS = gather(colsS.Values(sides.KindS), ls.pos)
	t.keyT, t.okT = gather(valuesT, lt.pos)

	// rank[p] is 1 + the valid T index of lattice position p, 0 if none.
	rank := make([]int32, len(valuesT))
	for ti, p := range lt.pos {
		rank[p] = int32(ti) + 1
	}
	x := &keyIndex{order: make([]int32, 0, len(lt.pos)), keys: make([]float64, 0, len(lt.pos))}
	for _, p := range colsT.Order(sides.KindT) {
		if r := rank[p]; r > 0 {
			x.order = append(x.order, r-1)
			x.keys = append(x.keys, valuesT[p])
		}
	}
	return t, x
}

// gather is aggKeys read from a lattice column: the values at the valid
// sets' positions, every one defined (min, max and sum of a non-empty set
// are).
func gather(column []float64, pos []int32) ([]float64, []bool) {
	keys, ok := make([]float64, len(pos)), make([]bool, len(pos))
	for i, p := range pos {
		keys[i], ok[i] = column[p], true
	}
	return keys, ok
}

// holds is Satisfies(validS[si], validT[ti]) on the precomputed terms.
func (t *pairTerm) holds(si, ti int) bool {
	if t.keyS == nil {
		return t.sides.Rel.Holds(t.setS[si], t.setT[ti])
	}
	return t.okS[si] && t.okT[ti] && t.sides.Op.Cmp(t.keyS[si], t.keyT[ti])
}

// ordered reports whether the term's partners of one S-set are a contiguous
// range of the T-sets sorted by key: every aggregate comparison but "!=".
func (t *pairTerm) ordered() bool {
	return t.keyS != nil && t.sides.Op != constraint.NE
}

// keyIndex is the T side of an ordered term sorted by key. Undefined and
// NaN keys are left out: no ordered comparison holds for them.
type keyIndex struct {
	keys  []float64 // ascending
	order []int32   // keys[p] is the key of validT[order[p]]
}

func newKeyIndex(keyT []float64, okT []bool) *keyIndex {
	x := &keyIndex{order: make([]int32, 0, len(keyT))}
	for ti, v := range keyT {
		if okT[ti] && !math.IsNaN(v) {
			x.order = append(x.order, int32(ti))
		}
	}
	slices.SortFunc(x.order, func(a, b int32) int { return cmp.Compare(keyT[a], keyT[b]) })
	x.keys = make([]float64, len(x.order))
	for p, ti := range x.order {
		x.keys[p] = keyT[ti]
	}
	return x
}

// search returns the first position whose key is >= v (> v when strict),
// adding the comparisons it made to *checks.
func (x *keyIndex) search(v float64, strict bool, checks *int64) int {
	return sort.Search(len(x.keys), func(p int) bool {
		*checks++
		k := x.keys[p]
		return k > v || (!strict && k == v)
	})
}

// partners returns the range [lo, hi) of positions whose keys satisfy
// "v op key".
func (x *keyIndex) partners(op constraint.Op, v float64, checks *int64) (lo, hi int) {
	switch op {
	case constraint.LE:
		return x.search(v, false, checks), len(x.keys)
	case constraint.LT:
		return x.search(v, true, checks), len(x.keys)
	case constraint.GE:
		return 0, x.search(v, true, checks)
	case constraint.GT:
		return 0, x.search(v, false, checks)
	case constraint.EQ:
		return x.search(v, false, checks), x.search(v, true, checks)
	}
	panic(fmt.Sprintf("core: no key range for operator %v", op))
}

// pairJoin is the state of one formPairs call over its prepared terms.
type pairJoin struct {
	ctx   context.Context
	terms []*pairTerm
	// index is the sorted T side of terms[0] when that term is ordered.
	index *keyIndex
	// from is the first term met pair by pair: 1 past an indexed lead,
	// whose range already holds only pairs that satisfy it.
	from int
	nT   int
	// checks is Stats.PairChecks: one per key comparison the join makes.
	checks          *int64
	work, nextCheck int64
}

// tick accounts n units of work about to be done and polls ctx once per
// pairCancelStride units.
func (j *pairJoin) tick(n int) error {
	due := j.work >= j.nextCheck
	j.work += int64(n)
	if !due {
		return nil
	}
	j.nextCheck = j.work + pairCancelStride
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("core: forming pairs: %w", err)
	}
	return nil
}

// firstFailing returns the first of terms[j.from:] the pair fails, in
// query order, or -1 when it satisfies them all.
func (j *pairJoin) firstFailing(si, ti int) int {
	for k := j.from; k < len(j.terms); k++ {
		*j.checks++
		if !j.terms[k].holds(si, ti) {
			return k
		}
	}
	return -1
}

// count returns how many partners each of the nS S-sets has and books every
// rejected pair on the first term it fails. With an index the leading term
// costs one range lookup per row — the T-sets outside the range are its
// rejections — and only the pairs inside the range meet the later terms;
// without one every pair meets every term.
func (j *pairJoin) count(nS int) ([]int32, error) {
	rowCount := make([]int32, nS)
	for si := range rowCount {
		lo, hi := j.rowRange(si)
		j.terms[0].rejected += int64(j.nT - (hi - lo))
		if j.from == len(j.terms) {
			// The range is the row's answer; no pair is visited.
			if err := j.tick(1); err != nil {
				return rowCount, err
			}
			rowCount[si] = int32(hi - lo)
			continue
		}
		if err := j.tick(1 + hi - lo); err != nil {
			return rowCount, err
		}
		for p := lo; p < hi; p++ {
			if k := j.firstFailing(si, j.at(p)); k >= 0 {
				j.terms[k].rejected++
			} else {
				rowCount[si]++
			}
		}
	}
	return rowCount, nil
}

// materialize appends the pairs of every row with partners to *pairs, S in
// lattice order, then T in lattice order, until cap(*pairs) are there. A
// row's range is marked in a bitmap over T (one bit per T-set, in lattice
// order) and the bitmap is walked upward: each candidate meets only the
// terms the counting pass met pair by pair — never an indexed lead, whose
// range is the answer to it — and the row's tests end at its last partner.
// Each word is cleared as the walk passes it, so the next row starts from
// an empty bitmap.
func (j *pairJoin) materialize(rowCount []int32, pairs *[]Pair) error {
	row := make([]uint64, (j.nT+63)/64)
	for si, left := range rowCount {
		if left == 0 {
			continue
		}
		lo, hi := j.rowRange(si)
		if err := j.tick(hi - lo + len(row)); err != nil {
			return err
		}
		for p := lo; p < hi; p++ {
			ti := j.at(p)
			row[ti/64] |= 1 << (ti % 64)
		}
		for w, word := range row {
			row[w] = 0
			for ; word != 0 && left > 0; word &= word - 1 {
				ti := w*64 + bits.TrailingZeros64(word)
				if j.firstFailing(si, ti) >= 0 {
					continue
				}
				*pairs = append(*pairs, Pair{SI: int32(si), TI: int32(ti)})
				if len(*pairs) == cap(*pairs) {
					return nil
				}
				left--
			}
		}
	}
	return nil
}

// rowRange returns the positions (see at) of S-set si's candidates: its
// partners under an indexed lead — none when its key is undefined or NaN —
// and every T-set without an index.
func (j *pairJoin) rowRange(si int) (lo, hi int) {
	if j.index == nil {
		return 0, j.nT
	}
	lead := j.terms[0]
	if v := lead.keyS[si]; lead.okS[si] && !math.IsNaN(v) {
		return j.index.partners(lead.sides.Op, v, j.checks)
	}
	return 0, 0
}

// at returns the T-set at position p of a rowRange: index.order[p] with an
// index, p itself without one.
func (j *pairJoin) at(p int) int {
	if j.index == nil {
		return p
	}
	return int(j.index.order[p])
}

package mine

import (
	"math"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/obs"
)

// Check is one anti-monotone condition a candidate must satisfy to be
// counted. Testing it on a candidate adds one to *Counter (when Counter is
// non-nil); a candidate that fails it is charged to Site and tested against
// no later check of its level.
type Check struct {
	Cond    constraint.Constraint
	Site    *obs.PruneSite
	Counter *int64
}

// pairKind is how a check is tested on a level-2 cell.
type pairKind uint8

const (
	pairSatisfies pairKind = iota // Cond.Satisfies on the borrowed pair
	pairSum                       // w[p] + w[q] Op C
	pairMax                       // max(w[p], w[q]) Op C
	pairMin                       // min(w[p], w[q]) Op C
	pairCount                     // 2 Op C: count(X) is 2 for every pair
)

// levelCheck is a Check as the miner tests it at one level: its pair form,
// when level 2 has one, and the tests and rejections not yet added to
// Counter and Site.
type levelCheck struct {
	Check
	kind pairKind
	c    float64   // the constant of the pair form
	w    []float64 // the attribute per L1 position (pairSum, pairMax, pairMin)
	// What the pair form's Op.Cmp(x, c) gives for x below, at and above c,
	// and when either is NaN.
	below, at, above, nan bool
	tested, failed        int64
}

// holds is the pair form's comparison x Op c, as Op.Cmp gives it.
func (ch *levelCheck) holds(x float64) bool {
	switch {
	case x < ch.c:
		return ch.below
	case x > ch.c:
		return ch.above
	case x == ch.c:
		return ch.at
	}
	return ch.nan
}

// levelChecks loads the checks of the given level into l.checks and reports
// whether the level filters at all: Config.Checks is asked once per level.
func (l *Levelwise) levelChecks(level int) bool {
	if l.cfg.Checks == nil {
		return false
	}
	l.checks = l.checks[:0]
	for _, ch := range l.cfg.Checks(level) {
		l.checks = append(l.checks, levelCheck{Check: ch})
	}
	return true
}

// pairForms gives each loaded check that has a pair form its level-2 test,
// reading its attribute once for each L1 position. A check over an attribute
// that does not reach some L1 item keeps Satisfies.
func (l *Levelwise) pairForms() {
	// One array backs every check's attribute values.
	weights := make([]float64, 0, len(l.checks)*len(l.l1Ranks))
	for i := range l.checks {
		ch := &l.checks[i]
		f, ok := constraint.PairFormOf(ch.Cond)
		if !ok {
			continue
		}
		ch.c = f.C
		ch.below, ch.at, ch.above, ch.nan = f.Op.Cmp(0, 1), f.Op.Cmp(1, 1), f.Op.Cmp(1, 0), f.Op.Cmp(math.NaN(), 0)
		if f.Agg == attr.Count {
			ch.kind = pairCount
			continue
		}
		start := len(weights)
		for _, r := range l.l1Ranks {
			it := l.rankToItem[r]
			if int(it) >= len(f.Attr) {
				break
			}
			weights = append(weights, f.Attr[it])
		}
		if len(weights)-start < len(l.l1Ranks) {
			weights = weights[:start]
			continue
		}
		ch.w = weights[start:len(weights):len(weights)]
		switch f.Agg {
		case attr.Sum:
			ch.kind = pairSum
		case attr.Max:
			ch.kind = pairMax
		default:
			ch.kind = pairMin
		}
	}
}

// passes tests s, a borrowed or level-1 set, against the loaded checks in
// order, stopping at the first that fails.
func (l *Levelwise) passes(s itemset.Set) bool {
	for i := range l.checks {
		ch := &l.checks[i]
		ch.tested++
		if !ch.Cond.Satisfies(s) {
			ch.failed++
			return false
		}
	}
	return true
}

// filterCells tests the level-2 cells (p, q), lo ≤ q < hi, of row p against
// the loaded checks in order, by their pair forms where they have one, and
// returns how many it rejected. Cell (p, q) is bit c+q-lo of mask, which
// must be clear for them on entry; each check tests the cells the checks
// before it kept, and sets the bits of the ones it rejects. No checkpoint
// falls inside the cells, so testing them check by check tallies what
// testing them cell by cell would.
func (l *Levelwise) filterCells(mask []uint64, p, lo, hi, c int) int {
	rejected := 0
	for i := range l.checks {
		ch := &l.checks[i]
		for q := lo; q < hi; q++ {
			x := c + q - lo
			bit := uint64(1) << (x & 63)
			if mask[x>>6]&bit != 0 {
				continue
			}
			ch.tested++
			var ok bool
			switch ch.kind {
			case pairSum:
				ok = ch.holds(ch.w[p] + ch.w[q])
			case pairMax:
				ok = ch.holds(math.Max(ch.w[p], ch.w[q]))
			case pairMin:
				ok = ch.holds(math.Min(ch.w[p], ch.w[q]))
			case pairCount:
				ok = ch.holds(2)
			default:
				ok = ch.Cond.Satisfies(l.borrow(l.l1Ranks[p], l.l1Ranks[q]))
			}
			if !ok {
				mask[x>>6] |= bit
				ch.failed++
				rejected++
			}
		}
	}
	return rejected
}

// flushChecks adds the loaded checks' tallies to their counters and sites.
// Every checkpoint of a filtering loop is preceded by one, so what a
// checkpoint sees is what one charge per test would have left.
func (l *Levelwise) flushChecks() {
	for i := range l.checks {
		ch := &l.checks[i]
		if ch.Counter != nil {
			*ch.Counter += ch.tested
		}
		ch.Site.Add(ch.failed)
		ch.tested, ch.failed = 0, 0
	}
}

package mine

import (
	"fmt"
	"math/bits"
	"slices"
)

// colCheckRows is how many rows' worth of column words the counting loop
// ANDs between checkpoints: a few microseconds of work.
const colCheckRows = 1 << 18

// countCandidates returns the supports of lexicographically sorted k-level
// candidates, k ≥ 3, over the whole database. It reads no row: it counts on
// the item columns of the generation's pair-support table that level 2 read
// (txdb.PairSupports.Column), a candidate's support being the popcount of the
// AND of its items' columns. Every rank of a candidate is in a frequent pair
// of the run, whose items the table covers. Candidates come in lex order, so
// the AND of every prefix is kept and recomputed from the first rank that
// changed: most candidates cost one AND. Stats.LatticeBytes is charged the
// prefix ANDs' scratch, (k−2)·⌈rows/64⌉ words, before the level's first
// counting checkpoint; another follows every colCheckRows rows' worth of
// ANDs.
func (l *Levelwise) countCandidates(cands [][]int32, k int) ([]int, error) {
	tab, rows := l.pairs, l.cfg.DB.Len()
	w := (rows + 63) / 64
	l.stats.LatticeBytes += int64(k-2) * int64(w) * 8
	where := fmt.Sprintf("level %d: counting", k)
	if err := l.guard.Check(where); err != nil {
		return nil, err
	}
	col := func(r int32) []uint64 { return tab.Column(tab.Position(l.rankToItem[r])) }
	// and[j] is the AND of the columns of the current candidate's first j+1
	// ranks; and[0] is a column itself, the others live in l.pre.
	and := make([][]uint64, k-1)
	l.pre = slices.Grow(l.pre[:0], (k-2)*w)[:(k-2)*w]
	for j := 1; j < k-1; j++ {
		and[j] = l.pre[(j-1)*w : j*w : j*w]
	}
	counts := make([]int, len(cands))
	work, nextCheck := 0, colCheckRows
	for i, cand := range cands {
		d := 0 // the first rank that differs from the previous candidate's
		if i > 0 {
			for d < k-1 && cand[d] == cands[i-1][d] {
				d++
			}
		}
		if d == 0 {
			and[0] = col(cand[0])
			d = 1
		}
		for j := d; j < k-1; j++ {
			andInto(and[j], and[j-1], col(cand[j]))
		}
		counts[i] = andCount(and[k-2], col(cand[k-1]))
		for work += (k - d) * rows; work >= nextCheck; nextCheck += colCheckRows {
			if err := l.guard.Check(where); err != nil {
				return nil, err
			}
		}
	}
	return counts, nil
}

// andInto writes the AND of a and b into dst, four words a step.
func andInto(dst, a, b []uint64) {
	dst, b = dst[:len(a)], b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0] = x[0] & y[0]
		d[1] = x[1] & y[1]
		d[2] = x[2] & y[2]
		d[3] = x[3] & y[3]
	}
	for ; i < len(a); i++ {
		dst[i] = a[i] & b[i]
	}
}

// andCount is the number of bits set in both a and b, counted four words a
// step into independent sums.
func andCount(a, b []uint64) int {
	b = b[:len(a)]
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		n0 += bits.OnesCount64(x[0] & y[0])
		n1 += bits.OnesCount64(x[1] & y[1])
		n2 += bits.OnesCount64(x[2] & y[2])
		n3 += bits.OnesCount64(x[3] & y[3])
	}
	for ; i < len(a); i++ {
		n0 += bits.OnesCount64(a[i] & b[i])
	}
	return n0 + n1 + n2 + n3
}

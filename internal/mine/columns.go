package mine

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/itemset"
)

// pageWords is the most words a column has in one page: a page holds up to
// 64·pageWords rows.
const pageWords = 64

// colCheckRows is how many rows' worth of column words the counting loop
// ANDs between checkpoints: a few microseconds of work, as checkBatch rows
// are for a pass.
const colCheckRows = 1 << 18

// columns is what levels k ≥ 3 count on: the rows of one counting pass, kept
// as one bit column per rank. Bit j of a rank's column is set when the j-th
// row that survived the pass's trim holds the rank's item. The rows live in
// pages of at most 64·pageWords rows, each page holding every column's
// stretch of those rows; a candidate's support is the sum over the pages of
// the popcount of the AND of its columns.
type columns struct {
	rows   int      // leading transactions the pass read; -1 until it completes
	colOf  []int32  // rank → column, -1 for a rank without one
	stride int      // words per column in a page
	pages  []page   // every accumulator's pages, in accumulator order
	tab    []int32  // item → column, -1 for an item without one
	acc    []keeper // per accumulator of the pass
	pre    []uint64 // prefix ANDs while counting
}

// page is a run of kept rows: column c is bits[c*stride : (c+1)*stride], of
// which the first ⌈rows/64⌉ words are in use.
type page struct {
	bits []uint64
	rows int
}

// keeper is what one accumulator of a pass kept, and the storage of the pages
// it kept in earlier passes, for reuse.
type keeper struct {
	pages []page
	spare [][]uint64
}

// columnsPool recycles columns, page storage included, across runs: one
// allocation serves every level of a run and, while the pool holds it, later
// runs.
var columnsPool = sync.Pool{New: func() any { return new(columns) }}

// countCandidates returns the supports of lexicographically sorted k-level
// candidates over txs — the database's transactions, or a leading run of
// them. It counts on the run's columns when they were built over the same
// rows and hold every rank of cands; otherwise one pass over txs
// (buildColumns) first builds them for the ranks of cover, which holds every
// rank of cands and, so that later levels can reuse them, every rank those
// levels can hold. A candidate's ranks are ranks of the previous level's
// candidates, and a row that holds a candidate survived that level's trim, so
// a run makes a pass at the first level that counts here and none after it.
func (l *Levelwise) countCandidates(cands [][]int32, k int, txs []itemset.Set, cover [][]int32) ([]int, error) {
	if !l.cols.hold(cands, len(txs)) {
		if err := l.buildColumns(cover, k, txs); err != nil {
			return nil, err
		}
	}
	return l.intersect(cands, k)
}

// hold reports whether c was built over rows transactions and has a column
// for every rank of sets.
func (c *columns) hold(sets [][]int32, rows int) bool {
	if c == nil || c.rows != rows {
		return false
	}
	for _, s := range sets {
		for _, r := range s {
			if c.colOf[r] < 0 {
				return false
			}
		}
	}
	return true
}

// buildColumns reads txs once (countPass) through a table that keeps the
// ranks of cover, and keeps every row left with at least k of them — led,
// under a Required class, by a required rank, as every candidate is — as one
// bit in the column of each. Each accumulator fills pages of its own rows;
// their pages, in accumulator order, hold the kept rows in database order. A
// completed pass counts in Stats.DBScans. Stats.LatticeBytes is charged,
// before the pass, ⌈rows/64⌉ words per column, rows being those the pass
// reads: a formula, so it does not depend on Workers or on what storage the
// pool held.
func (l *Levelwise) buildColumns(cover [][]int32, k int, txs []itemset.Set) error {
	c := l.cols
	if c == nil {
		c = columnsPool.Get().(*columns)
		l.cols = c
	}
	c.rows = -1

	// Columns in rank order, so the table is monotone per class and a
	// trimmed row leads with its required columns (through).
	c.colOf = filled(c.colOf, len(l.rankToItem), -1)
	for _, s := range cover {
		for _, r := range s {
			c.colOf[r] = 0
		}
	}
	nCols, firstOther := int32(0), int32(0)
	c.tab = filled(c.tab, len(l.itemToRank), -1)
	for r, v := range c.colOf {
		if v < 0 {
			continue
		}
		c.colOf[r] = nCols
		c.tab[l.rankToItem[r]] = nCols
		nCols++
		if r < l.nRequired {
			firstOther = nCols
		}
	}

	// A page is as long as the rows allow, up to pageWords: a short pass
	// keeps its rows in one page sized to them.
	c.stride = min(pageWords, (len(txs)+63)/64)
	for len(c.acc) < max(1, l.cfg.Workers) {
		c.acc = append(c.acc, keeper{})
	}
	for a := range c.acc {
		p := &c.acc[a]
		for _, pg := range p.pages {
			p.spare = append(p.spare, pg.bits)
		}
		p.pages = p.pages[:0]
	}
	size := int(nCols) * c.stride
	l.stats.LatticeBytes += int64(nCols) * int64((len(txs)+63)/64) * 8
	err := l.countPass(fmt.Sprintf("level %d: counting", k), txs, func(ctx context.Context, txs []itemset.Set, a int) {
		c.acc[a].keep(ctx, txs, c.tab, firstOther, k, size, c.stride)
	})
	if err != nil {
		return err
	}
	l.stats.DBScans++
	c.pages = c.pages[:0]
	for _, p := range c.acc {
		c.pages = append(c.pages, p.pages...)
	}
	c.rows = len(txs)
	return nil
}

// keep is buildColumns' loop over a run of transactions: every row that
// survives the trim goes into the accumulator's last page, or a new one of
// size words. A non-nil ctx is polled between transaction batches; on
// cancellation the partial pages are abandoned by the caller.
func (p *keeper) keep(ctx context.Context, txs []itemset.Set, tab []int32, firstOther int32, k, size, stride int) {
	var buf []int32 // the transaction's columns, ascending
	for i, t := range txs {
		if ctx != nil && i%checkBatch == 0 && ctx.Err() != nil {
			return
		}
		buf = through(buf, t, tab, firstOther)
		if len(buf) < k || firstOther > 0 && buf[0] >= firstOther {
			continue // no candidate fits in the row
		}
		last := len(p.pages) - 1
		if last < 0 || p.pages[last].rows == 64*stride {
			p.pages = append(p.pages, page{bits: p.storage(size)})
			last++
		}
		pg := &p.pages[last]
		at, bit := pg.rows/64, uint64(1)<<(pg.rows%64)
		for _, col := range buf {
			pg.bits[int(col)*stride+at] |= bit
		}
		pg.rows++
	}
}

// storage returns size zeroed words for a new page, reusing a spare page's
// when one is large enough.
func (p *keeper) storage(size int) []uint64 {
	for i, s := range p.spare {
		if cap(s) >= size {
			p.spare[i] = p.spare[len(p.spare)-1]
			p.spare = p.spare[:len(p.spare)-1]
			s = s[:size]
			clear(s)
			return s
		}
	}
	return make([]uint64, size)
}

// intersect counts each candidate as the popcount of the AND of its columns,
// page by page. Candidates come in lex order, so the AND of every prefix is
// kept and recomputed from the first rank that changed: most candidates cost
// one AND. It checkpoints once before it starts and again after every
// colCheckRows rows' worth of ANDs, counted over the kept rows and not the
// pages that hold them, so a level that makes no pass can still be cancelled,
// at the same points for every Workers value.
func (l *Levelwise) intersect(cands [][]int32, k int) ([]int, error) {
	where := fmt.Sprintf("level %d: column counting", k)
	if err := l.guard.Check(where); err != nil {
		return nil, err
	}
	c := l.cols
	s := c.stride
	// and[j] is the AND of the columns of the current candidate's first j+1
	// ranks over the current page; and[0] is a column itself, the others
	// live in c.pre.
	and := make([][]uint64, k-1)
	c.pre = slices.Grow(c.pre[:0], (k-2)*s)[:(k-2)*s]
	counts := make([]int, len(cands))
	work, nextCheck := 0, colCheckRows
	for _, pg := range c.pages {
		w := (pg.rows + 63) / 64
		col := func(r int32) []uint64 {
			at := int(c.colOf[r]) * s
			return pg.bits[at : at+w : at+w]
		}
		for j := 1; j < k-1; j++ {
			and[j] = c.pre[(j-1)*s : (j-1)*s+w]
		}
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
			counts[i] += andCount(and[k-2], col(cand[k-1]))
			for work += (k - d) * pg.rows; work >= nextCheck; nextCheck += colCheckRows {
				if err := l.guard.Check(where); err != nil {
					return nil, err
				}
			}
		}
	}
	return counts, nil
}

// andInto writes the AND of a and b into dst.
func andInto(dst, a, b []uint64) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i, x := range a {
		dst[i] = x & b[i]
	}
}

// andCount is the number of bits set in both a and b.
func andCount(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, x := range a {
		n += bits.OnesCount64(x & b[i])
	}
	return n
}

// filled returns s resized to n values, all v, in s's storage when it is
// large enough.
func filled(s []int32, n int, v int32) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Package txdb implements the transaction database substrate for CFQ
// mining: an in-memory trans(TID, Itemset) relation with scan accounting,
// item-domain restriction, naive support counting (used as the oracle in
// tests), and text and binary on-disk codecs.
//
// A DB is immutable, so what is counted over all of it belongs to the
// database generation rather than to a query: the per-item supports, and the
// pair supports and item bit columns (PairSupports) every mining run reads its
// level 2 from and counts its levels ≥ 3 on. A generation made by appending
// rows to another (Extend) derives both from its parent's by counting the
// appended rows only: such an extension reads no old row and records no pass.
package txdb

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/itemset"
	"repro/internal/obs"
)

// DB is an immutable in-memory transaction database. The zero value is an
// empty database. DB values are safe for concurrent readers; a DB must not
// be copied after first use.
type DB struct {
	tx       []itemset.Set
	numItems int   // size of the item domain (max item id + 1)
	scans    int64 // full-scan counter, for I/O accounting

	// Per-item statistics. The database is immutable, so they are computed
	// at most once per DB — once per dataset generation — on first use.
	statsOnce sync.Once
	supports  []int       // supports[it] = transactions containing it
	active    itemset.Set // items with support > 0

	// The pair supports at the lowest threshold asked for so far, nil before
	// the first PairSupports call completes.
	pairs atomic.Pointer[PairSupports]

	// base is an earlier generation's table, whose rows are this database's
	// leading rows (Extend); PairSupports extends it while it covers what is
	// asked. It is released once the database publishes a table of its own.
	base atomic.Pointer[PairSupports]
}

// New builds a database from the given transactions. Each transaction must
// be a valid (strictly increasing) itemset; New panics otherwise, since a
// malformed transaction indicates a programming error upstream. Transactions
// are not copied; callers must not mutate them afterwards.
func New(transactions []itemset.Set) *DB {
	return &DB{tx: transactions, numItems: domainOf(transactions, 0, 0)}
}

// domainOf validates transactions, which start at row first, and returns the
// size of the item domain they and numItems items span together.
func domainOf(transactions []itemset.Set, first, numItems int) int {
	for i, t := range transactions {
		if !t.Valid() {
			panic(fmt.Sprintf("txdb: transaction %d is not a valid itemset: %v", first+i, t))
		}
		if n := t.Len(); n > 0 && int(t[n-1])+1 > numItems {
			numItems = int(t[n-1]) + 1
		}
	}
	return numItems
}

// Extend builds the database of all, whose first db.Len() transactions must
// be db's own — the next generation of an append-only dataset. Only the
// appended rows are validated (it panics on an invalid one, as New does) and
// counted: the item supports are db's plus theirs, and the pair supports db
// built, or failing those the table db itself extends from, become the new
// database's base, which PairSupports extends by the appended rows instead of
// making a pass. Neither database is changed; the transactions are not copied.
func (db *DB) Extend(all []itemset.Set) *DB {
	old := db.Len()
	if len(all) < old {
		panic(fmt.Sprintf("txdb.Extend: %d transactions do not extend a database of %d", len(all), old))
	}
	d := &DB{tx: all, numItems: domainOf(all[old:], old, db.numItems)}
	sup := make([]int, d.numItems)
	copy(sup, db.ItemSupports())
	for _, t := range all[old:] {
		for _, it := range t {
			sup[it]++
		}
	}
	d.statsOnce.Do(func() { d.supports, d.active = sup, activeItems(sup) })
	// A table db publishes between the first two loads releases its base, so
	// the third finds the table.
	base := db.pairs.Load()
	if base == nil {
		base = db.base.Load()
	}
	if base == nil {
		base = db.pairs.Load()
	}
	d.base.Store(base)
	return d
}

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.tx) }

// NumItems returns the size of the item domain: one more than the largest
// item id occurring in any transaction.
func (db *DB) NumItems() int { return db.numItems }

// Transaction returns the i-th transaction. The returned set must not be
// mutated.
func (db *DB) Transaction(i int) itemset.Set { return db.tx[i] }

// Transactions returns the underlying transaction slice. Callers must treat
// it as read-only; it is shared with the DB (used by the durable store to
// encode snapshots without copying the dataset).
func (db *DB) Transactions() []itemset.Set { return db.tx }

// recordScan records one full database scan for I/O accounting (both on the
// DB and, live, in the global metrics registry — so a mid-run scrape sees
// scan progress). Scan and the pair-support build call it.
func (db *DB) recordScan() {
	atomic.AddInt64(&db.scans, 1)
	obs.MDBScans.Inc()
}

// Scan invokes fn once per transaction, in TID order, and records one full
// database scan.
func (db *DB) Scan(fn func(tid int, t itemset.Set)) {
	db.recordScan()
	for i, t := range db.tx {
		fn(i, t)
	}
}

// Scans returns the number of recorded passes performed so far (an
// I/O-cost proxy: the paper's experiments count CPU + I/O time, and levelwise
// algorithms differ chiefly in how many passes they make). The one-time
// statistics pass behind ItemSupports and ActiveItems is not a scan in this
// sense: like New's validation pass it belongs to building the database, and
// charging it to whichever reader happened to come first would make every
// miner's pass count depend on its callers. The pass that builds a
// PairSupports table is one: it reads every row, for the pair counts and the
// item columns, and it is recorded once per build — so on the database,
// though in no run's own counters. A table extended from an earlier
// generation's (Extend) reads only the appended rows and records no pass. No
// mining run makes a pass of its own.
func (db *DB) Scans() int64 { return atomic.LoadInt64(&db.scans) }

// ResetScans zeroes the scan counter (used between experiment runs).
func (db *DB) ResetScans() { atomic.StoreInt64(&db.scans, 0) }

// Support counts, with a full scan, the transactions containing every item
// of s. It is the ground-truth oracle used by tests; the mining engine uses
// batched counting instead.
func (db *DB) Support(s itemset.Set) int {
	n := 0
	db.Scan(func(_ int, t itemset.Set) {
		if t.ContainsAll(s) {
			n++
		}
	})
	return n
}

// Restrict returns a new database whose transactions are projected onto the
// given item domain (items outside domain are dropped; empty projections are
// kept so transaction counts, and hence support thresholds expressed as
// fractions, stay comparable). The receiver is unchanged.
func (db *DB) Restrict(domain itemset.Set) *DB {
	out := make([]itemset.Set, len(db.tx))
	for i, t := range db.tx {
		out[i] = t.Intersect(domain)
	}
	return New(out)
}

// itemStats computes the per-item statistics on first use.
func (db *DB) itemStats() {
	db.statsOnce.Do(func() {
		sup := make([]int, db.numItems)
		for _, t := range db.tx {
			for _, it := range t {
				sup[it]++
			}
		}
		db.supports, db.active = sup, activeItems(sup)
	})
}

// activeItems is the set of items whose support is positive.
func activeItems(sup []int) itemset.Set {
	var active itemset.Set
	for it, c := range sup {
		if c > 0 {
			active = append(active, itemset.Item(it))
		}
	}
	return active
}

// ItemSupports returns the support of every item, indexed by item id (length
// NumItems()). The slice is shared by every caller and must not be mutated.
func (db *DB) ItemSupports() []int {
	db.itemStats()
	return db.supports
}

// ActiveItems returns the set of items occurring in at least one
// transaction. The result is the caller's own copy.
func (db *DB) ActiveItems() itemset.Set {
	db.itemStats()
	return db.active.Clone()
}

// PairSupports is the support of every pair of the items whose own support
// reaches its threshold — the level-2 counts of an unconstrained mine at that
// threshold, kept as one triangle — and a bit column over every row for each
// of those items, which a set of them is counted on. Any pair of other items
// has a support below the threshold, so a table answers every pair at a
// threshold at or above its own exactly, and every set of a larger size is
// made of covered items or is infrequent there too: one table serves every
// run of a database generation at those thresholds, whatever items it mines.
// A table extended from an earlier generation's covers that table's items,
// which may include a few whose support has since fallen below its own
// threshold. Each covered position also lists its partners, the positions it
// forms a pair reaching the threshold with (Partners), so a run reads the
// frequent cells without visiting the others. A table is immutable.
type PairSupports struct {
	minSup   int
	rows     int            // the rows counted: the database's leading rows
	frequent int            // cells at or above minSup
	pos      []int32        // item → position among the covered items, -1 for the others
	items    []itemset.Item // position → item
	off      []int          // cells[off[a]+b] is the pair (a, b) of positions a < b
	cells    []int32
	words    int      // words per column: ⌈rows/64⌉
	cols     []uint64 // the column of position a is cols[a*words : (a+1)*words]
	// The partners of position a are partners[partOff[a]:partOff[a+1]],
	// ascending: 4 bytes in each of the two lists a frequent pair is in.
	partOff  []int
	partners []int32
}

// MinSupport is the threshold the table was built at.
func (p *PairSupports) MinSupport() int { return p.minSup }

// Frequent is the number of pairs whose support reaches the table's
// threshold — the frequent pairs of a run at that threshold that mines every
// item; a run at a higher one has fewer, possibly far fewer.
func (p *PairSupports) Frequent() int { return p.frequent }

// Position returns the position of it among the covered items, which ascend
// with the items, or -1 when the table does not cover it.
func (p *PairSupports) Position(it itemset.Item) int32 {
	if int(it) >= len(p.pos) || it < 0 {
		return -1
	}
	return p.pos[it]
}

// Item returns the item at covered position a.
func (p *PairSupports) Item(a int32) itemset.Item { return p.items[a] }

// Row returns the supports of the pairs (a, b), b > a, of covered positions,
// the one of (a, b) at b-a-1. The slice is shared and must not be mutated.
func (p *PairSupports) Row(a int32) []int32 {
	start := p.off[a] + int(a) + 1
	return p.cells[start : start+len(p.off)-int(a)-1]
}

// Cell returns the support of the pair of covered positions a ≠ b.
func (p *PairSupports) Cell(a, b int32) int32 {
	if b < a {
		a, b = b, a
	}
	return p.cells[p.off[a]+int(b)]
}

// Partners returns the covered positions b ≠ a whose pair with a reaches the
// table's threshold, ascending. The slice is shared and must not be mutated.
func (p *PairSupports) Partners(a int32) []int32 {
	return p.partners[p.partOff[a]:p.partOff[a+1]:p.partOff[a+1]]
}

// Column returns the bit column of covered position a: bit j%64 of word j/64
// is set when row j holds the position's item, and the bits past the last
// row are zero. The slice is shared and must not be mutated.
func (p *PairSupports) Column(a int32) []uint64 {
	at := int(a) * p.words
	return p.cols[at : at+p.words : at+p.words]
}

// PairSupportsBytes is the size of the cells and columns of a PairSupports
// table built by a pass at minSup: 4 bytes for every pair of the items whose
// support reaches it, and ⌈rows/64⌉ words for each of those items. It reads
// only the item supports, so it is the same whether or not a table has been
// built; a table extended from an earlier generation's can cover a few more
// items than that (see PairSupports). The partner lists, 8 bytes for each
// frequent pair, are not included: their size is known only once the pairs
// are counted.
func (db *DB) PairSupportsBytes(minSup int) int64 {
	minSup = max(minSup, 1)
	n := int64(0)
	for _, s := range db.ItemSupports() {
		if s >= minSup {
			n++
		}
	}
	return 4*(n*(n-1)/2) + 8*n*int64((len(db.tx)+63)/64)
}

// buildBatch is how many rows the pair-support build reads between polls of
// its context, as a miner's pass does between checkpoints.
const buildBatch = 2048

// PairSupports returns a table that covers every item whose support reaches
// minSup (values below 1 are treated as 1). The table the database holds
// serves when its threshold is at most minSup. Otherwise, when the database
// has a base (Extend) that covers every such item, the base's cells and
// columns are copied and the appended rows added to them, with no pass
// recorded: any pair the base leaves out holds an item below minSup. Failing
// that, one pass over the rows builds a table and records a scan. Either way
// the new table is labelled minSup and published, unless the database has
// meanwhile published one at a threshold no higher, which is returned
// instead; publishing releases the base. Readers of a replaced table keep
// reading it. Concurrent callers may each build; no lock is held across the
// build. workers ≥ 2 splits a pass's rows among up to that many goroutines,
// on boundaries of 512 rows, so that no two write the same column word; they
// count pairs into triangles of their own that are summed, and the result
// does not depend on the split. ctx is polled every buildBatch rows (by each
// goroutine, and once more after they join): a cancelled build publishes
// nothing and returns ctx.Err().
func (db *DB) PairSupports(ctx context.Context, minSup, workers int) (*PairSupports, error) {
	minSup = max(minSup, 1)
	if p := db.pairs.Load(); p != nil && p.minSup <= minSup {
		return p, nil
	}
	var p *PairSupports
	var err error
	if base := db.base.Load(); base != nil && base.covers(db.ItemSupports(), minSup) {
		p, err = base.extend(ctx, db.tx, minSup)
	} else {
		p, err = db.countPairs(ctx, minSup, workers)
	}
	if err != nil {
		return nil, err
	}
	for {
		cur := db.pairs.Load()
		if cur != nil && cur.minSup <= minSup {
			return cur, nil
		}
		if db.pairs.CompareAndSwap(cur, p) {
			db.base.Store(nil)
			return p, nil
		}
	}
}

// covers reports whether the table covers every item whose support, in sup,
// reaches minSup.
func (p *PairSupports) covers(sup []int, minSup int) bool {
	for it, s := range sup {
		if s >= minSup && p.Position(itemset.Item(it)) < 0 {
			return false
		}
	}
	return true
}

// extend returns a table at minSup over all, whose leading rows are the ones
// p counted: p's cells and columns, the columns widened to all's rows, with
// the pairs and bits of the rows after them added. p is not changed. It polls
// ctx before it starts and every buildBatch rows it adds.
func (p *PairSupports) extend(ctx context.Context, all []itemset.Set, minSup int) (*PairSupports, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(p.off)
	e := &PairSupports{minSup: minSup, rows: len(all), pos: p.pos, items: p.items, off: p.off,
		cells: slices.Clone(p.cells), words: (len(all) + 63) / 64}
	e.cols = make([]uint64, n*e.words)
	for a := range n {
		copy(e.cols[a*e.words:], p.Column(int32(a)))
	}
	var buf []int32 // the row's positions, ascending
	for i, t := range all[p.rows:] {
		if i > 0 && i%buildBatch == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		buf = buf[:0]
		for _, it := range t {
			if a := e.Position(it); a >= 0 {
				buf = append(buf, a)
			}
		}
		r := p.rows + i
		word, bit := r/64, uint64(1)<<(r%64)
		for x, a := range buf {
			e.cols[int(a)*e.words+word] |= bit
			row := e.off[a]
			for _, b := range buf[x+1:] {
				e.cells[row+int(b)]++
			}
		}
	}
	e.index()
	return e, nil
}

// countPairs builds a PairSupports table at minSup in one pass.
func (db *DB) countPairs(ctx context.Context, minSup, workers int) (*PairSupports, error) {
	sup := db.ItemSupports()
	p := &PairSupports{minSup: minSup, rows: len(db.tx), pos: make([]int32, len(sup))}
	n := 0
	for it, s := range sup {
		p.pos[it] = -1
		if s >= minSup {
			p.pos[it] = int32(n)
			p.items = append(p.items, itemset.Item(it))
			n++
		}
	}
	p.off = make([]int, n)
	cells := 0
	for a := range p.off {
		p.off[a] = cells - (a + 1)
		cells += n - 1 - a
	}
	p.cells = make([]int32, cells)
	p.words = (len(db.tx) + 63) / 64
	p.cols = make([]uint64, n*p.words)
	db.recordScan()
	chunk := len(db.tx)
	if workers >= 2 && len(db.tx) >= 4*workers {
		tiles := (p.words + tileWords - 1) / tileWords
		chunk = 64 * tileWords * ((tiles + workers - 1) / workers)
	}
	per := [][]int32{p.cells}
	var wg sync.WaitGroup
	for first := chunk; first < len(db.tx); first += chunk {
		tri := make([]int32, cells)
		per = append(per, tri)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.count(ctx, db.tx[first:min(first+chunk, len(db.tx))], first, tri)
		}()
	}
	err := p.count(ctx, db.tx[:min(chunk, len(db.tx))], 0, per[0])
	wg.Wait()
	if err == nil && len(per) > 1 {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	for _, tri := range per[1:] {
		for c, k := range tri {
			p.cells[c] += k
		}
	}
	p.index()
	return p, nil
}

// index counts the cells at or above the table's threshold and lists each
// position's partners. A pass in row order lists the lower partners of every
// position before its higher ones, each part ascending.
func (p *PairSupports) index() {
	n := len(p.off)
	// start[a+1] counts a's partners, then start[a] is where its list begins.
	start := make([]int, n+1)
	for a := range n {
		for x, k := range p.Row(int32(a)) {
			if int(k) >= p.minSup {
				start[a+1]++
				start[a+2+x]++
			}
		}
	}
	for a := range n {
		start[a+1] += start[a]
	}
	p.frequent = start[n] / 2
	p.partners = make([]int32, start[n])
	// Filling moves start[a] to the end of a's list, which is where a+1's
	// begins; shifting by one restores the starts.
	for a := range n {
		for x, k := range p.Row(int32(a)) {
			if int(k) >= p.minSup {
				b := a + 1 + x
				p.partners[start[a]] = int32(b)
				start[a]++
				p.partners[start[b]] = int32(a)
				start[b]++
			}
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	p.partOff = start
}

// tileWords is how many words of every column the build fills in a tile of
// its own before it copies them out: the bits of a block of 512 rows, one
// cache line of each column.
const tileWords = 8

// count adds the pairs of covered items each of txs holds into tri, a
// triangle laid out as p.cells, and sets each row's bit in the columns of its
// covered items; txs[0] is row first, a multiple of 64·tileWords, so the
// column words it writes are its own. The bits go into a tile laid out word
// by word — a row's bits land in the 8·n bytes of its word, which the cache
// keeps — and a full tile goes out to the columns a cache line per column. It
// polls ctx every buildBatch rows and stops at the first cancellation it
// sees, returning it.
func (p *PairSupports) count(ctx context.Context, txs []itemset.Set, first int, tri []int32) error {
	pos, off, n := p.pos, p.off, len(p.off)
	tile := make([]uint64, tileWords*n) // word w of position a at w*n+a
	var buf []int32                     // the row's positions, ascending
	for i, t := range txs {
		if i%buildBatch == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Every position is stored and the length moves on only behind a
		// covered one: a conditional move, where a guarded append is a branch
		// the item data makes unpredictable.
		if cap(buf) <= len(t) {
			buf = make([]int32, 2*len(t)+1)
		}
		buf = buf[:len(t)+1]
		k := 0
		for _, it := range t {
			v := pos[it]
			buf[k] = v
			if v >= 0 {
				k++
			}
		}
		r := first + i
		word, bit := tile[r/64%tileWords*n:][:n], uint64(1)<<(r%64)
		for x, a := range buf[:k] {
			word[a] |= bit
			row := off[a]
			for _, b := range buf[x+1 : k] {
				tri[row+int(b)]++
			}
		}
		if (r+1)%(64*tileWords) == 0 || i == len(txs)-1 {
			p.flush(tile, r/64/tileWords*tileWords)
		}
	}
	return nil
}

// flush copies a tile into the columns from word w on, as far as they reach,
// and clears it.
func (p *PairSupports) flush(tile []uint64, w int) {
	n, end := len(p.off), min(w+tileWords, p.words)
	for a := range n {
		col := p.cols[a*p.words+w : a*p.words+end]
		for j := range col {
			col[j] = tile[j*n+a]
		}
	}
	clear(tile)
}

// WriteText writes the database in the one-transaction-per-line text format
// (space-separated item ids).
func (db *DB) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range db.tx {
		for i, it := range t {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(it))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format written by WriteText. Blank lines denote
// empty transactions. Items on a line may be in any order and may repeat;
// they are normalized.
func ReadText(r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var txs []itemset.Set
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		items := make([]itemset.Item, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("txdb: line %d: bad item %q: %v", line, f, err)
			}
			if v < 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("txdb: line %d: item %d outside [0, 2^31)", line, v)
			}
			items = append(items, itemset.Item(v))
		}
		txs = append(txs, itemset.New(items...))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(txs), nil
}

// Binary format: magic, uint32 transaction count, then for each transaction
// a uint32 length followed by that many uint32 item ids, all little-endian.
var binaryMagic = [8]byte{'C', 'F', 'Q', 'T', 'D', 'B', '1', '\n'}

// ErrBadFormat reports a corrupt or truncated binary database file.
var ErrBadFormat = errors.New("txdb: bad binary format")

// WriteBinary writes the database in the compact binary format.
func (db *DB) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := EncodeTransactions(bw, db.tx); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodeTransactions writes the stable binary encoding of a transaction
// list: a uint32 count, then per transaction a uint32 length followed by
// that many uint32 item ids, all little-endian. The layout is shared by the
// whole-DB binary codec (WriteBinary adds a magic prefix and a trailing-data
// check) and the durable store's WAL record and snapshot payloads — it is
// part of the on-disk contract, so it must never change shape silently.
func EncodeTransactions(w io.Writer, txs []itemset.Set) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(txs)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	for _, t := range txs {
		binary.LittleEndian.PutUint32(buf[:], uint32(t.Len()))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		for _, it := range t {
			binary.LittleEndian.PutUint32(buf[:], uint32(it))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeTransactions reads back an EncodeTransactions payload, validating
// length claims, item ranges and itemset invariants (sortedness, no
// duplicates). Corruption yields ErrBadFormat wrapped with position detail.
// The decode consumes exactly the encoded bytes, so it composes inside
// length-delimited containers (WAL records) as well as whole files.
func DecodeTransactions(r io.Reader) ([]itemset.Set, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: reading count: %v", ErrBadFormat, err)
	}
	// Never pre-allocate from an untrusted header: a forged count would
	// reserve gigabytes before the truncated body could be rejected.
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	txs := make([]itemset.Set, 0, capHint)
	for i := uint32(0); i < count; i++ {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("%w: transaction %d length: %v", ErrBadFormat, i, err)
		}
		if n > maxBinaryTxLen {
			return nil, fmt.Errorf("%w: transaction %d claims %d items", ErrBadFormat, i, n)
		}
		items := make([]itemset.Item, n)
		for j := range items {
			var v uint32
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("%w: transaction %d item %d: %v", ErrBadFormat, i, j, err)
			}
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("%w: transaction %d item %d = %d outside [0, 2^31)", ErrBadFormat, i, j, v)
			}
			items[j] = itemset.Item(v)
		}
		if !sort.SliceIsSorted(items, func(a, b int) bool { return items[a] < items[b] }) {
			return nil, fmt.Errorf("%w: transaction %d not sorted", ErrBadFormat, i)
		}
		s := itemset.Set(items)
		if !s.Valid() {
			return nil, fmt.Errorf("%w: transaction %d has duplicates", ErrBadFormat, i)
		}
		txs = append(txs, s)
	}
	return txs, nil
}

// maxBinaryTxLen bounds a single transaction's length claim so corrupt
// length fields fail fast instead of attempting huge allocations.
const maxBinaryTxLen = 1 << 24

// ReadBinary parses the binary format written by WriteBinary, validating the
// magic, length fields and itemset invariants. Corruption yields
// ErrBadFormat (wrapped with position details).
func ReadBinary(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	txs, err := DecodeTransactions(br)
	if err != nil {
		return nil, err
	}
	// Trailing garbage is rejected: the format is self-delimiting.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after %d transactions", ErrBadFormat, len(txs))
	}
	return New(txs), nil
}

// Package txdb implements the transaction database substrate for CFQ
// mining: an in-memory trans(TID, Itemset) relation with scan accounting,
// item-domain restriction, naive support counting (used as the oracle in
// tests), and text and binary on-disk codecs.
package txdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
}

// New builds a database from the given transactions. Each transaction must
// be a valid (strictly increasing) itemset; New panics otherwise, since a
// malformed transaction indicates a programming error upstream. Transactions
// are not copied; callers must not mutate them afterwards.
func New(transactions []itemset.Set) *DB {
	numItems := 0
	for i, t := range transactions {
		if !t.Valid() {
			panic(fmt.Sprintf("txdb.New: transaction %d is not a valid itemset: %v", i, t))
		}
		if n := t.Len(); n > 0 && int(t[n-1])+1 > numItems {
			numItems = int(t[n-1]) + 1
		}
	}
	return &DB{tx: transactions, numItems: numItems}
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

// RecordScan records one full database scan for I/O accounting (both on the
// DB and, live, in the global metrics registry — so a mid-run scrape sees
// scan progress). Scan calls it; a reader that walks Transactions() itself
// under its own checkpoints, as the miner's level-2 pass does, calls it once
// per pass.
func (db *DB) RecordScan() {
	atomic.AddInt64(&db.scans, 1)
	obs.MDBScans.Inc()
}

// Scan invokes fn once per transaction, in TID order, and records one full
// database scan.
func (db *DB) Scan(fn func(tid int, t itemset.Set)) {
	db.RecordScan()
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
// miner's pass count depend on its callers.
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
		var active itemset.Set
		for it, c := range sup {
			if c > 0 {
				active = append(active, itemset.Item(it))
			}
		}
		db.supports, db.active = sup, active
	})
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

package txdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
)

func sampleDB() *DB {
	return New([]itemset.Set{
		itemset.New(1, 2, 3),
		itemset.New(2, 3),
		itemset.New(1, 3, 5),
		itemset.New(),
		itemset.New(5),
	})
}

func TestBasics(t *testing.T) {
	db := sampleDB()
	if db.Len() != 5 {
		t.Errorf("Len = %d, want 5", db.Len())
	}
	if db.NumItems() != 6 {
		t.Errorf("NumItems = %d, want 6", db.NumItems())
	}
	if got := db.Transaction(2); !got.Equal(itemset.New(1, 3, 5)) {
		t.Errorf("Transaction(2) = %v", got)
	}
	if got := db.ActiveItems(); !got.Equal(itemset.New(1, 2, 3, 5)) {
		t.Errorf("ActiveItems = %v", got)
	}
}

func TestEmptyDB(t *testing.T) {
	var db DB
	if db.Len() != 0 || db.NumItems() != 0 {
		t.Errorf("zero DB: Len=%d NumItems=%d", db.Len(), db.NumItems())
	}
	if got := db.Support(itemset.New(1)); got != 0 {
		t.Errorf("Support on empty DB = %d", got)
	}
}

func TestNewPanicsOnInvalidTransaction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unsorted transaction did not panic")
		}
	}()
	New([]itemset.Set{{3, 1}})
}

func TestSupport(t *testing.T) {
	db := sampleDB()
	tests := []struct {
		s    itemset.Set
		want int
	}{
		{itemset.New(), 5}, // every transaction contains the empty set
		{itemset.New(3), 3},
		{itemset.New(1, 3), 2},
		{itemset.New(1, 2, 3), 1},
		{itemset.New(4), 0},
		{itemset.New(2, 5), 0},
	}
	for _, tt := range tests {
		if got := db.Support(tt.s); got != tt.want {
			t.Errorf("Support(%v) = %d, want %d", tt.s, got, tt.want)
		}
	}
}

func TestScanAccounting(t *testing.T) {
	db := sampleDB()
	if db.Scans() != 0 {
		t.Fatalf("initial Scans = %d", db.Scans())
	}
	n := 0
	db.Scan(func(tid int, tx itemset.Set) {
		if tid != n {
			t.Errorf("tid = %d, want %d", tid, n)
		}
		n++
	})
	if n != 5 {
		t.Errorf("scanned %d transactions", n)
	}
	db.Support(itemset.New(1))
	if db.Scans() != 2 {
		t.Errorf("Scans = %d, want 2", db.Scans())
	}
	db.ResetScans()
	if db.Scans() != 0 {
		t.Errorf("Scans after reset = %d", db.Scans())
	}
}

func TestRestrict(t *testing.T) {
	db := sampleDB()
	r := db.Restrict(itemset.New(1, 5))
	if r.Len() != db.Len() {
		t.Fatalf("Restrict changed transaction count: %d", r.Len())
	}
	if got := r.Transaction(0); !got.Equal(itemset.New(1)) {
		t.Errorf("restricted tx0 = %v", got)
	}
	if got := r.Transaction(1); !got.Empty() {
		t.Errorf("restricted tx1 = %v", got)
	}
	if got := r.Support(itemset.New(1, 5)); got != 1 {
		t.Errorf("restricted Support({1,5}) = %d", got)
	}
	// Original untouched.
	if got := db.Transaction(0); !got.Equal(itemset.New(1, 2, 3)) {
		t.Errorf("original mutated: %v", got)
	}
}

func TestTextRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round-trip Len = %d", back.Len())
	}
	for i := 0; i < db.Len(); i++ {
		if !back.Transaction(i).Equal(db.Transaction(i)) {
			t.Errorf("tx %d = %v, want %v", i, back.Transaction(i), db.Transaction(i))
		}
	}
}

func TestReadTextNormalizesAndRejects(t *testing.T) {
	db, err := ReadText(strings.NewReader("3 1 2 2\n\n7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Transaction(0).Equal(itemset.New(1, 2, 3)) {
		t.Errorf("tx0 = %v", db.Transaction(0))
	}
	if !db.Transaction(1).Empty() {
		t.Errorf("tx1 = %v", db.Transaction(1))
	}
	if _, err := ReadText(strings.NewReader("1 x 3\n")); err == nil {
		t.Error("non-numeric item accepted")
	}
	if _, err := ReadText(strings.NewReader("-4\n")); err == nil {
		t.Error("negative item accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		if !back.Transaction(i).Equal(db.Transaction(i)) {
			t.Errorf("tx %d = %v, want %v", i, back.Transaction(i), db.Transaction(i))
		}
	}
}

// TestBinaryCorruption injects faults into every region of the binary file
// and checks each is rejected with ErrBadFormat rather than accepted or
// panicking.
func TestBinaryCorruption(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := append([]byte{}, b...); c[0] ^= 0xFF; return c }},
		{"truncated header", func(b []byte) []byte { return b[:6] }},
		{"truncated count", func(b []byte) []byte { return b[:10] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte{}, b...), 0xAA) }},
		{"huge length claim", func(b []byte) []byte {
			c := append([]byte{}, b...)
			// First transaction length field lives at offset 12.
			c[12], c[13], c[14], c[15] = 0xFF, 0xFF, 0xFF, 0x7F
			return c
		}},
		{"unsorted transaction", func(b []byte) []byte {
			c := append([]byte{}, b...)
			// Swap the first two items of transaction 0 (offsets 16 and 20).
			copy(c[16:20], []byte{2, 0, 0, 0})
			copy(c[20:24], []byte{1, 0, 0, 0})
			return c
		}},
		{"duplicate items", func(b []byte) []byte {
			c := append([]byte{}, b...)
			copy(c[20:24], c[16:20])
			return c
		}},
		{"item overflows int32", func(b []byte) []byte {
			c := append([]byte{}, b...)
			// Last item of transaction 0 (offset 24) set to 0xFFFFFFFF,
			// which would wrap to a negative Item.
			copy(c[24:28], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			return c
		}},
	}
	for _, tt := range corruptions {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(tt.mutate(good)))
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("corruption %q: err = %v, want ErrBadFormat", tt.name, err)
			}
		})
	}
}

// Property: both codecs round-trip random databases, and Restrict commutes
// with Support for sets inside the domain.
func TestQuickRoundTripAndRestrict(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20)
		txs := make([]itemset.Set, n)
		for i := range txs {
			m := r.Intn(6)
			items := make([]itemset.Item, m)
			for j := range items {
				items[j] = itemset.Item(r.Intn(15))
			}
			txs[i] = itemset.New(items...)
		}
		db := New(txs)

		var tb, bb bytes.Buffer
		if db.WriteText(&tb) != nil || db.WriteBinary(&bb) != nil {
			return false
		}
		d1, err1 := ReadText(&tb)
		d2, err2 := ReadBinary(&bb)
		if err1 != nil || err2 != nil || d1.Len() != n || d2.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !d1.Transaction(i).Equal(txs[i]) || !d2.Transaction(i).Equal(txs[i]) {
				return false
			}
		}

		dom := itemset.New(itemset.Item(r.Intn(15)), itemset.Item(r.Intn(15)), itemset.Item(r.Intn(15)))
		sub := dom
		if sub.Len() > 1 {
			sub = sub[:1+r.Intn(sub.Len())]
		}
		return db.Restrict(dom).Support(sub) == db.Support(sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestItemStatsOncePerDB: the per-item statistics are computed by whichever
// reader comes first — here eight at once — and every reader then sees that
// one result; the pass is not a Scan. Run with -race.
func TestItemStatsOncePerDB(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	txs := make([]itemset.Set, 500)
	want := make([]int, 40)
	for i := range txs {
		items := make([]itemset.Item, r.Intn(8))
		for j := range items {
			items[j] = itemset.Item(r.Intn(40))
		}
		txs[i] = itemset.New(items...)
		for _, it := range txs[i] {
			want[it]++
		}
	}
	db := New(txs)
	want = want[:db.NumItems()]

	const readers = 8
	sups := make([][]int, readers)
	actives := make([]itemset.Set, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				sups[g], actives[g] = db.ItemSupports(), db.ActiveItems()
			} else {
				actives[g], sups[g] = db.ActiveItems(), db.ItemSupports()
			}
		}(g)
	}
	wg.Wait()
	for g := range sups {
		if !reflect.DeepEqual(sups[g], want) {
			t.Fatalf("reader %d: ItemSupports = %v, want %v", g, sups[g], want)
		}
		if &sups[g][0] != &sups[0][0] {
			t.Errorf("reader %d got its own supports: computed more than once", g)
		}
		for _, it := range actives[g] {
			if want[it] == 0 {
				t.Errorf("reader %d: inactive item %d in ActiveItems", g, it)
			}
		}
		if !actives[g].Equal(actives[0]) {
			t.Errorf("reader %d: ActiveItems = %v, reader 0 saw %v", g, actives[g], actives[0])
		}
	}
	if db.Scans() != 0 {
		t.Errorf("Scans = %d after statistics only, want 0", db.Scans())
	}
}

// TestActiveItemsIsCallersCopy: callers keep and edit what ActiveItems
// returns, so no two results — and not the database's own set — may share
// storage.
func TestActiveItemsIsCallersCopy(t *testing.T) {
	db := sampleDB()
	a, b := db.ActiveItems(), db.ActiveItems()
	for i := range a {
		a[i] = 99
	}
	want := itemset.New(1, 2, 3, 5)
	if !b.Equal(want) {
		t.Errorf("second result changed with the first: %v", b)
	}
	if got := db.ActiveItems(); !got.Equal(want) {
		t.Errorf("ActiveItems after a caller's edit = %v, want %v", got, want)
	}
	var empty DB
	if got := empty.ActiveItems(); !got.Empty() || len(empty.ItemSupports()) != 0 {
		t.Errorf("zero DB: ActiveItems = %v, ItemSupports = %v", got, empty.ItemSupports())
	}
}

// pairDB is a database long enough for several build batches, with a last
// batch shorter than the others.
func pairDB(seed int64) *DB {
	r := rand.New(rand.NewSource(seed))
	txs := make([]itemset.Set, 2*buildBatch+37)
	for i := range txs {
		items := make([]itemset.Item, r.Intn(7))
		for j := range items {
			items[j] = itemset.Item(r.Intn(30))
		}
		txs[i] = itemset.New(items...)
	}
	return New(txs)
}

// checkPairs holds a table to the naive count: it covers exactly the items
// whose support reaches its threshold, at ascending positions, and holds
// every pair of them at its support. It counts on a copy of db, whose scans
// it leaves alone.
func checkPairs(t *testing.T, db *DB, p *PairSupports) {
	t.Helper()
	oracle := New(db.Transactions())
	var covered []itemset.Item
	for it, n := range db.ItemSupports() {
		want := int32(-1)
		if n >= p.MinSupport() {
			want = int32(len(covered))
			covered = append(covered, itemset.Item(it))
		}
		if got := p.Position(itemset.Item(it)); got != want {
			t.Fatalf("σ=%d: Position(%d) = %d, want %d", p.MinSupport(), it, got, want)
		}
	}
	if got := p.Position(itemset.Item(db.NumItems() + 5)); got != -1 {
		t.Errorf("Position of an item outside the database = %d, want -1", got)
	}
	n, words := int64(len(covered)), int64((db.Len()+63)/64)
	if got, want := db.PairSupportsBytes(p.MinSupport()), 4*n*(n-1)/2+8*n*words; got != want {
		t.Errorf("σ=%d: PairSupportsBytes = %d, want 4 bytes for each of the %d cells and %d words for each of the %d columns",
			p.MinSupport(), got, n*(n-1)/2, words, n)
	}
	checkColumns(t, db, p, covered)
	frequent := 0
	defer func() {
		if p.Frequent() != frequent && !t.Failed() {
			t.Errorf("σ=%d: Frequent() = %d, %d pairs reach the threshold", p.MinSupport(), p.Frequent(), frequent)
		}
	}()
	for a, x := range covered {
		row := p.Row(int32(a))
		if len(row) != len(covered)-a-1 {
			t.Fatalf("σ=%d: row %d has %d cells, want %d", p.MinSupport(), a, len(row), len(covered)-a-1)
		}
		for b, y := range covered[a+1:] {
			want := oracle.Support(itemset.New(x, y))
			if got := int(row[b]); got != want {
				t.Fatalf("σ=%d: support of {%d,%d} = %d, want %d", p.MinSupport(), x, y, got, want)
			}
			if want >= p.MinSupport() {
				frequent++
			}
		}
	}
}

// checkColumns holds the table's column of each covered item to naive row
// membership: ⌈rows/64⌉ words, bit j set exactly when row j holds the item,
// and no bit past the last row.
func checkColumns(t *testing.T, db *DB, p *PairSupports, covered []itemset.Item) {
	t.Helper()
	words := (db.Len() + 63) / 64
	for a, it := range covered {
		col := p.Column(int32(a))
		if len(col) != words {
			t.Fatalf("σ=%d: column of %d has %d words, want %d", p.MinSupport(), it, len(col), words)
		}
		for j := 0; j < 64*words; j++ {
			want := j < db.Len() && db.Transaction(j).Contains(it)
			if got := col[j/64]&(1<<(j%64)) != 0; got != want {
				t.Fatalf("σ=%d: bit %d of the column of %d is %v, row %d holds it: %v", p.MinSupport(), j, it, got, j, want)
			}
		}
	}
}

// TestItemColumns: the build that counts the pairs also sets the covered
// items' bit columns, which match naive row membership at every threshold —
// on row counts that are and are not a multiple of 64, with fewer rows than
// a split needs, and whether one goroutine or several wrote them — and a
// build cancelled part-way publishes nothing, so the next one starts from
// clean columns.
func TestItemColumns(t *testing.T) {
	ctx := context.Background()
	base := pairDB(43).Transactions() // 4 133 rows: the last word is partial
	for _, rows := range []int{len(base), 64 * 40, 10} {
		for _, workers := range []int{1, 4} {
			for _, minSup := range []int{1, rows / 20, rows / 8, rows + 1} {
				db := New(base[:rows])
				p, err := db.PairSupports(ctx, minSup, workers)
				if err != nil {
					t.Fatal(err)
				}
				checkPairs(t, db, p)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		db := New(base)
		// The first poll passes and a later one reports the cancellation: the
		// build has set some bits by then.
		cancelled := &cancelAfter{Context: ctx, polls: 1}
		if p, err := db.PairSupports(cancelled, 1, workers); p != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled build = (%v, %v), want context.Canceled", workers, p, err)
		}
		if db.pairs.Load() != nil {
			t.Fatalf("workers=%d: a cancelled build published a table", workers)
		}
		p, err := db.PairSupports(ctx, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkPairs(t, db, p)
	}
}

// cancelAfter is a context whose Err reports cancellation after its first
// polls calls.
type cancelAfter struct {
	context.Context
	mu    sync.Mutex
	polls int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestPairSupports: a table is the naive pair count over its covered items,
// whether one goroutine or several counted it; it serves every threshold at
// or above its own without a pass; a lower
// threshold builds a new table in one recorded pass and replaces it, while a
// reader of the old one keeps reading what it read; and a cancelled build
// publishes nothing.
func TestPairSupports(t *testing.T) {
	db := pairDB(41)
	ctx := context.Background()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, workers := range []int{1, 4} {
		if p, err := db.PairSupports(cancelled, 40, workers); p != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled build = (%v, %v), want context.Canceled", workers, p, err)
		}
		if db.pairs.Load() != nil || db.Scans() != 1 {
			t.Fatalf("workers=%d: cancelled build: table %v published, %d scans recorded; want none and 1", workers, db.pairs.Load(), db.Scans())
		}
		db.ResetScans()
	}

	high, err := db.PairSupports(ctx, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, db, high)
	if p, _ := db.PairSupports(ctx, 500, 1); p != high || db.Scans() != 1 {
		t.Fatalf("σ′ = 500 over a table at 400: got a table at %d after %d scans, want the table at 400 after 1", p.MinSupport(), db.Scans())
	}
	before := make([][]int32, 0)
	for a := range high.off {
		before = append(before, slices.Clone(high.Row(int32(a))))
	}
	low, err := db.PairSupports(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if low.MinSupport() != 1 || db.Scans() != 2 {
		t.Fatalf("σ = 0: a table at %d after %d scans, want one at 1 after 2", low.MinSupport(), db.Scans())
	}
	checkPairs(t, db, low)
	if p, _ := db.PairSupports(ctx, 400, 1); p != low {
		t.Error("the lower threshold's table does not serve σ′ = 400")
	}
	for a, row := range before {
		if !slices.Equal(high.Row(int32(a)), row) || high.MinSupport() != 400 {
			t.Fatal("replacing a table changed what its readers see")
		}
	}
	var empty DB
	if p, err := empty.PairSupports(ctx, 1, 4); err != nil || p.Position(0) != -1 {
		t.Errorf("zero DB: (%v, %v)", p, err)
	}
}

// TestPairSupportsConcurrentBuilds: first callers at several thresholds, with
// and without a split of the rows, may each build; every one gets a table
// that serves it, and the database keeps the lowest threshold's. Run with
// -race.
func TestPairSupportsConcurrentBuilds(t *testing.T) {
	db := pairDB(42)
	sups := []int{300, 150, 450, 150, 300, 600}
	tabs := make([]*PairSupports, len(sups))
	var wg sync.WaitGroup
	for g, minSup := range sups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[g], _ = db.PairSupports(context.Background(), minSup, 1+g%3)
		}()
	}
	wg.Wait()
	for g, p := range tabs {
		if p == nil || p.MinSupport() > sups[g] {
			t.Fatalf("caller %d at %d got %v", g, sups[g], p)
		}
		checkPairs(t, db, p)
	}
	if p := db.pairs.Load(); p.MinSupport() != 150 {
		t.Errorf("the database holds a table at %d, want the lowest threshold 150", p.MinSupport())
	}
}

// skewedRows draws n rows over items ids, the low ids far more often than the
// high ones, so that thresholds split the items into covered and uncovered.
func skewedRows(r *rand.Rand, n, items int) []itemset.Set {
	rows := make([]itemset.Set, n)
	for i := range rows {
		row := make([]itemset.Item, r.Intn(7))
		for j := range row {
			row[j] = itemset.Item(r.Intn(r.Intn(items) + 1))
		}
		rows[i] = itemset.New(row...)
	}
	return rows
}

// tableCell is the support of {x, y}, x < y, in a table that covers every
// item of positive support, and 0 for a pair it leaves out.
func tableCell(p *PairSupports, x, y itemset.Item) int32 {
	a, b := p.Position(x), p.Position(y)
	if a < 0 || b < 0 {
		return 0
	}
	return p.Row(a)[b-a-1]
}

// checkExtended holds p, a table of db at minSup however it was made, to the
// one-pass table of a database New builds over the same rows: db's item
// statistics are that database's; p covers every item whose support reaches
// minSup at ascending positions; every pair of covered items holds its
// support, every covered item its column over db's rows (no bit past the
// last), Frequent counts the cells that reach minSup, and the partner lists
// match the cells (checkPartnerLists).
func checkExtended(t *testing.T, db *DB, p *PairSupports, minSup int) {
	t.Helper()
	fresh := New(db.Transactions())
	if db.NumItems() != fresh.NumItems() || !reflect.DeepEqual(db.ItemSupports(), fresh.ItemSupports()) ||
		!db.ActiveItems().Equal(fresh.ActiveItems()) {
		t.Fatalf("item statistics: %d items, supports %v, active %v; New: %d, %v, %v", db.NumItems(),
			db.ItemSupports(), db.ActiveItems(), fresh.NumItems(), fresh.ItemSupports(), fresh.ActiveItems())
	}
	ref, err := fresh.PairSupports(context.Background(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.MinSupport() != minSup {
		t.Fatalf("a table labelled %d, asked at %d", p.MinSupport(), minSup)
	}
	var covered []itemset.Item
	for it, s := range db.ItemSupports() {
		switch a := p.Position(itemset.Item(it)); {
		case a >= 0:
			if int(a) != len(covered) {
				t.Fatalf("σ=%d: Position(%d) = %d, want %d", minSup, it, a, len(covered))
			}
			covered = append(covered, itemset.Item(it))
		case s >= minSup:
			t.Fatalf("σ=%d: item %d of support %d is not covered", minSup, it, s)
		}
	}
	if got := p.Position(itemset.Item(db.NumItems() + 5)); got != -1 {
		t.Errorf("Position of an item outside the database = %d, want -1", got)
	}
	words := (db.Len() + 63) / 64
	frequent := 0
	for a, x := range covered {
		col := p.Column(int32(a))
		want := make([]uint64, words)
		if b := ref.Position(x); b >= 0 {
			want = ref.Column(b)
		}
		if !slices.Equal(col, want) {
			t.Fatalf("σ=%d: the column of %d is %x, want %x", minSup, x, col, want)
		}
		for _, y := range covered[a+1:] {
			got, want := tableCell(p, x, y), tableCell(ref, x, y)
			if got != want {
				t.Fatalf("σ=%d: support of {%d,%d} = %d, want %d", minSup, x, y, got, want)
			}
			if int(want) >= minSup {
				frequent++
			}
		}
	}
	if p.Frequent() != frequent {
		t.Errorf("σ=%d: Frequent() = %d, %d pairs reach the threshold", minSup, p.Frequent(), frequent)
	}
	checkPartnerLists(t, p)
}

// tableBytes is a copy of a table's cells and columns.
func tableBytes(p *PairSupports) [2][]byte {
	var out [2][]byte
	for _, c := range p.cells {
		out[0] = binary.LittleEndian.AppendUint32(out[0], uint32(c))
	}
	for _, w := range p.cols {
		out[1] = binary.LittleEndian.AppendUint64(out[1], w)
	}
	return out
}

// TestExtendMatchesNew: a chain of generations, each Extend of the last by
// 0–70 rows, is asked at random thresholds; whether a generation extends its
// base or makes a pass, what it returns equals what New over the same rows
// gives (checkExtended). The appends include an empty one (an attribute-only
// recompile), rows holding items above the parent's domain, and rows that lift
// an item the base does not cover past the threshold, which must cost one
// recorded pass, as any threshold the base does not cover must; one it covers
// costs none. Some generations are asked under a cancelled context only and
// publish nothing, so their children extend the table they kept as base.
// Every table stays as it was published while its children extend it.
func TestExtendMatchesNew(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	chains := 12
	if testing.Short() {
		chains = 4
	}
	var extended, passes, lifted, grown, empty int
	for seed := range chains {
		r := rand.New(rand.NewSource(int64(seed)))
		items := 10 + r.Intn(20)
		all := skewedRows(r, 30+r.Intn(200), items)
		db := New(all)
		var base *PairSupports // the table db holds as its base, as the chain tracks it
		type published struct {
			p     *PairSupports
			bytes [2][]byte
		}
		var tables []published
		for g := range 20 + r.Intn(21) {
			minSup := 1 + r.Intn(max(1, db.Len()/4))
			if g > 0 {
				parent := db
				var delta []itemset.Set
				switch k := r.Intn(8); {
				case k == 0:
					empty++
				case k == 1: // items above the parent's domain
					grown++
					items += 1 + r.Intn(3)
					delta = skewedRows(r, 1+r.Intn(70), items)
					delta = append(delta, itemset.New(itemset.Item(items-1)))
				case k == 2 && base != nil: // lift an uncovered item past the threshold
					for it, s := range parent.ItemSupports() {
						if base.Position(itemset.Item(it)) >= 0 {
							continue
						}
						need := 1 + r.Intn(min(40, minSup))
						minSup = s + need
						for range need {
							delta = append(delta, itemset.New(itemset.Item(it), itemset.Item(r.Intn(items))))
						}
						lifted++
						break
					}
				default:
					delta = skewedRows(r, r.Intn(71), items)
				}
				all = append(all, delta...)
				db = parent.Extend(all)
				if p := parent.pairs.Load(); p != nil {
					base = p
				}
				if db.base.Load() != base {
					t.Fatalf("chain %d, generation %d: the base is not the table the parent last published", seed, g)
				}
			}
			covers := base != nil
			for it, s := range db.ItemSupports() {
				covers = covers && (s < minSup || base.Position(itemset.Item(it)) >= 0)
			}
			wantScans := int64(1)
			if covers {
				wantScans = 0
			}
			workers := 1 + 3*r.Intn(2)
			if r.Intn(6) == 0 {
				if p, err := db.PairSupports(cancelled, minSup, workers); p != nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("chain %d, generation %d: cancelled = (%v, %v), want context.Canceled", seed, g, p, err)
				}
				if db.pairs.Load() != nil || db.base.Load() != base || db.Scans() != wantScans {
					t.Fatalf("chain %d, generation %d: a cancelled build published a table, dropped the base or made %d passes", seed, g, db.Scans())
				}
				continue
			}
			p, err := db.PairSupports(ctx, minSup, workers)
			if err != nil {
				t.Fatal(err)
			}
			if db.Scans() != wantScans {
				t.Fatalf("chain %d, generation %d at %d: %d passes, want %d (base covers: %v)", seed, g, minSup, db.Scans(), wantScans, covers)
			}
			if db.base.Load() != nil {
				t.Fatalf("chain %d, generation %d: the base outlived the generation's own table", seed, g)
			}
			checkExtended(t, db, p, minSup)
			if covers {
				extended++
			} else {
				passes++
			}
			tables = append(tables, published{p, tableBytes(p)})
		}
		for i, tab := range tables {
			if got := tableBytes(tab.p); !reflect.DeepEqual(got, tab.bytes) {
				t.Fatalf("chain %d: published table %d changed after its children extended it", seed, i)
			}
		}
	}
	t.Logf("%d generations extended, %d made a pass; appends: %d empty, %d grew the domain, %d lifted an uncovered item",
		extended, passes, empty, grown, lifted)
	if extended == 0 || passes == 0 || lifted == 0 || grown == 0 || empty == 0 {
		t.Fatal("a chain shape did not occur: the comparison is vacuous")
	}
}

// TestExtendLeavesParent: two children of one parent extend the same base at
// two thresholds it covers, each asked by two goroutines at once, while other
// goroutines read the parent's rows and its table; every caller gets a table
// at its threshold that equals what New would give, no child makes a pass,
// and the parent's table is byte for byte what it was. Run with -race.
func TestExtendLeavesParent(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(45))
	rows := skewedRows(r, 3000, 40)
	parent := New(rows)
	tab, err := parent.PairSupports(ctx, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := tableBytes(tab)
	sups := []int{60, 90}
	children := make([]*DB, 2)
	for c := range children {
		children[c] = parent.Extend(append(slices.Clip(rows), skewedRows(r, 50+c*30, 40)...))
	}
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var sum uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range parent.Len() {
					sum += uint64(parent.Transaction(i).Len())
				}
				for a := range int32(len(tab.off)) {
					for _, w := range tab.Column(a) {
						sum += w
					}
					for _, c := range tab.Row(a) {
						sum += uint64(c)
					}
				}
			}
		}()
	}
	tabs := make([][]*PairSupports, len(children))
	for c, child := range children {
		tabs[c] = make([]*PairSupports, 2)
		for k := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tabs[c][k], _ = child.PairSupports(ctx, sups[c], 1)
			}()
		}
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for c, child := range children {
		if child.Scans() != 0 {
			t.Fatalf("child %d made %d passes, want none", c, child.Scans())
		}
		for _, p := range tabs[c] {
			if p == nil {
				t.Fatalf("child %d: a caller got no table", c)
			}
			checkExtended(t, child, p, sups[c])
		}
	}
	if !reflect.DeepEqual(tableBytes(tab), before) || parent.Scans() != 1 {
		t.Fatal("extending the parent's table changed it")
	}
}

// checkPartnerLists holds a table's partner lists to its cells, read row by
// row: the partners of every position a are exactly the b ≠ a whose cell
// reaches the table's threshold, ascending, Cell reads the cell from either
// side, Frequent is half the lists' total, and Item is Position's inverse.
func checkPartnerLists(t *testing.T, p *PairSupports) {
	t.Helper()
	n := int32(len(p.off))
	total := 0
	for a := range n {
		if got := p.Position(p.Item(a)); got != a {
			t.Fatalf("σ=%d: Position(Item(%d)) = %d", p.MinSupport(), a, got)
		}
		var want []int32
		for b := range n {
			if b == a {
				continue
			}
			lo, hi := min(a, b), max(a, b)
			k := p.Row(lo)[hi-lo-1]
			if got := p.Cell(a, b); got != k {
				t.Fatalf("σ=%d: Cell(%d, %d) = %d, want %d", p.MinSupport(), a, b, got, k)
			}
			if int(k) >= p.MinSupport() {
				want = append(want, b)
			}
		}
		if got := p.Partners(a); !slices.Equal(got, want) {
			t.Fatalf("σ=%d: Partners(%d) = %v, want %v", p.MinSupport(), a, got, want)
		}
		total += len(want)
	}
	if 2*p.Frequent() != total {
		t.Fatalf("σ=%d: Frequent() = %d, the partner lists hold %d", p.MinSupport(), p.Frequent(), total)
	}
}

// TestPartnersMatchCells: every table lists each position's partners as its
// cells say — tables New builds at several thresholds, serially and with a
// split, and the tables of Extend chains, whether a generation extends its
// base or makes a pass.
func TestPartnersMatchCells(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{41, 42} {
		db := pairDB(seed)
		for _, minSup := range []int{400, 60, 25, 5, 1} {
			for _, workers := range []int{1, 4} {
				p, err := New(db.Transactions()).PairSupports(ctx, minSup, workers)
				if err != nil {
					t.Fatal(err)
				}
				if p.Frequent() == 0 && minSup <= 25 {
					t.Fatalf("σ=%d: no frequent pair; the fixture tells nothing", minSup)
				}
				checkPartnerLists(t, p)
			}
		}
	}
	var empty DB
	p, err := empty.PairSupports(ctx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkPartnerLists(t, p)

	chains := 12
	if testing.Short() {
		chains = 4
	}
	var extended, passes int
	for seed := range chains {
		r := rand.New(rand.NewSource(int64(100 + seed)))
		items := 10 + r.Intn(20)
		all := skewedRows(r, 30+r.Intn(200), items)
		db := New(all)
		minSup := 1 + r.Intn(max(1, db.Len()/8))
		for g := range 20 + r.Intn(21) {
			if g > 0 {
				if r.Intn(5) == 0 {
					items += 1 + r.Intn(3)
				}
				all = append(all, skewedRows(r, r.Intn(71), items)...)
				db = db.Extend(all)
				// Mostly the threshold stays, so the base serves; sometimes it
				// drops below what the base covers, which takes a pass.
				if r.Intn(4) == 0 {
					minSup = max(1, minSup-1-r.Intn(3))
				} else {
					minSup += r.Intn(3)
				}
			}
			before := db.Scans()
			p, err := db.PairSupports(ctx, minSup, 1+3*r.Intn(2))
			if err != nil {
				t.Fatal(err)
			}
			if db.Scans() == before {
				extended++
			} else {
				passes++
			}
			checkPartnerLists(t, p)
		}
	}
	if extended == 0 || passes == 0 {
		t.Fatalf("%d extended tables, %d passes: a chain shape did not occur", extended, passes)
	}
}

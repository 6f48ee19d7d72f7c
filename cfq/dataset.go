package cfq

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/attr"
	"repro/internal/itemset"
	"repro/internal/txdb"
)

// Dataset is a transaction database plus the itemInfo attribute relation:
// items are dense integer ids 0 … NumItems-1; each item may carry numeric
// attributes (Price-like) and categorical attributes (Type-like).
//
// Datasets are mutable until the first query runs against them; after that,
// adding transactions or attributes invalidates nothing but only affects
// later queries.
//
// Transactions are append-only: no mutator removes, reorders or rewrites
// one, and compiling hands the database the transaction slice itself, so the
// leading rows of every compiled snapshot are the previous snapshot's. A
// Session leans on this to carry a cached lattice across mutations by
// counting only the appended rows, and compiling leans on it to derive each
// snapshot from the previous one (txdb.DB.Extend): the item supports, pair
// supports and item columns grow by the appended rows instead of being
// counted over every row again (TestSnapshotsExtend pins it).
//
// A Dataset is safe for concurrent use: mutators and query compilation
// serialize on an internal lock, and each query evaluation captures an
// immutable compiled snapshot, so a mutation landing mid-evaluation never
// tears the transaction data a running query sees. A query that races a
// mutation sees either the old or the new compiled database, atomically.
type Dataset struct {
	mu          sync.Mutex
	numItems    int
	txs         []itemset.Set
	numeric     map[string][]float64
	categorical map[string][]string

	db    *txdb.DB
	attrs *attr.Table
	dirty bool
}

// NewDataset creates an empty dataset over an item domain of the given
// size.
func NewDataset(numItems int) *Dataset {
	return &Dataset{
		numItems:    numItems,
		numeric:     map[string][]float64{},
		categorical: map[string][]string{},
		dirty:       true,
	}
}

// NumItems returns the size of the item domain.
func (d *Dataset) NumItems() int { return d.numItems }

// NumTransactions returns the number of transactions added so far.
func (d *Dataset) NumTransactions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.txs)
}

// AddTransaction appends one transaction. Duplicate items are collapsed;
// out-of-domain items are an error.
func (d *Dataset) AddTransaction(items ...int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addTransactionLocked(items)
}

func (d *Dataset) addTransactionLocked(items []int) error {
	conv := make([]itemset.Item, len(items))
	for i, it := range items {
		if it < 0 || it >= d.numItems {
			return fmt.Errorf("cfq: item %d outside domain [0, %d)", it, d.numItems)
		}
		conv[i] = itemset.Item(it)
	}
	d.txs = append(d.txs, itemset.New(conv...))
	d.dirty = true
	return nil
}

// AddTransactions appends many transactions.
func (d *Dataset) AddTransactions(txs [][]int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range txs {
		if err := d.addTransactionLocked(t); err != nil {
			return err
		}
	}
	return nil
}

// SetNumeric registers a numeric item attribute; values must cover the
// whole item domain.
func (d *Dataset) SetNumeric(name string, values []float64) error {
	if len(values) != d.numItems {
		return fmt.Errorf("cfq: attribute %q has %d values, domain has %d items",
			name, len(values), d.numItems)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.numeric[name] = append([]float64(nil), values...)
	d.dirty = true
	return nil
}

// SetCategorical registers a categorical item attribute as one label per
// item.
func (d *Dataset) SetCategorical(name string, labels []string) error {
	if len(labels) != d.numItems {
		return fmt.Errorf("cfq: attribute %q has %d labels, domain has %d items",
			name, len(labels), d.numItems)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.categorical[name] = append([]string(nil), labels...)
	d.dirty = true
	return nil
}

// CheckTransactions validates a batch against the item domain without
// applying it. A durable registry logs the batch before the in-memory
// apply, and the validation must happen before the log write — an invalid
// batch must fail the request, not poison the log.
func (d *Dataset) CheckTransactions(txs [][]int) error {
	for i, t := range txs {
		for _, it := range t {
			if it < 0 || it >= d.numItems {
				return fmt.Errorf("cfq: transaction %d item %d outside domain [0, %d)", i, it, d.numItems)
			}
		}
	}
	return nil
}

// ExportState returns copies of the dataset's transactions and attribute
// maps — the payload a durable store persists in a create record or
// snapshot. The copies are safe to retain across later mutations.
func (d *Dataset) ExportState() (txs []itemset.Set, numeric map[string][]float64, categorical map[string][]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	txs = append([]itemset.Set(nil), d.txs...)
	numeric = make(map[string][]float64, len(d.numeric))
	for name, vals := range d.numeric {
		numeric[name] = append([]float64(nil), vals...)
	}
	categorical = make(map[string][]string, len(d.categorical))
	for name, labels := range d.categorical {
		categorical[name] = append([]string(nil), labels...)
	}
	return txs, numeric, categorical
}

// Attributes returns the registered numeric and categorical attribute
// names, sorted (the dataset-info surface of a serving registry).
func (d *Dataset) Attributes() (numeric, categorical []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name := range d.numeric {
		numeric = append(numeric, name)
	}
	for name := range d.categorical {
		categorical = append(categorical, name)
	}
	sort.Strings(numeric)
	sort.Strings(categorical)
	return numeric, categorical
}

// WrapDB adopts an existing internal transaction database (used by the
// experiment harness and the data generator CLI; not needed by API users).
func WrapDB(db *txdb.DB, numItems int) *Dataset {
	d := NewDataset(numItems)
	for i := 0; i < db.Len(); i++ {
		d.txs = append(d.txs, db.Transaction(i))
	}
	return d
}

// ReadTransactions loads transactions in the one-per-line text format
// (space-separated item ids). Malformed input — bad item tokens,
// out-of-domain ids, or lines violating the itemset invariants — is
// reported as an error, never a panic.
func (d *Dataset) ReadTransactions(r io.Reader) (err error) {
	defer recoverToError(&err)
	db, err := txdb.ReadText(r)
	if err != nil {
		return err
	}
	if db.NumItems() > d.numItems {
		return fmt.Errorf("cfq: transactions reference item %d outside domain [0, %d)",
			db.NumItems()-1, d.numItems)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < db.Len(); i++ {
		d.txs = append(d.txs, db.Transaction(i))
	}
	d.dirty = true
	return nil
}

// WriteTransactions saves the transactions in the text format.
func (d *Dataset) WriteTransactions(w io.Writer) error {
	d.mu.Lock()
	txs := append([]itemset.Set(nil), d.txs...)
	d.mu.Unlock()
	return txdb.New(txs).WriteText(w)
}

// Compile eagerly freezes the dataset into its internal compiled form (the
// first query otherwise pays this lazily). A long-lived server calls it
// after each batch of mutations so query requests never carry the
// compilation cost — and so the compiled snapshot flips atomically from the
// perspective of concurrent queries.
func (d *Dataset) Compile() error {
	_, _, err := d.snapshot()
	return err
}

// snapshot compiles (if needed) and returns the immutable compiled pair a
// query evaluation should capture once and use throughout. The returned
// *txdb.DB doubles as the dataset's generation token: it changes identity
// exactly when a mutation recompiles.
func (d *Dataset) snapshot() (*txdb.DB, *attr.Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.compileLocked(); err != nil {
		return nil, nil, err
	}
	return d.db, d.attrs, nil
}

// compileLocked freezes the dataset into the internal representations.
// Internal invariant violations (e.g. a malformed transaction injected past
// the validating mutators) surface as errors: compile is the panic boundary
// between caller-supplied data and the engine's panic-on-programmer-error
// constructors. Callers hold d.mu.
func (d *Dataset) compileLocked() (err error) {
	defer recoverToError(&err)
	if !d.dirty && d.db != nil {
		return nil
	}
	var db *txdb.DB
	if d.db != nil {
		db = d.db.Extend(d.txs)
	} else {
		db = txdb.New(d.txs)
	}
	attrs := attr.NewTable(d.numItems)
	for name, vals := range d.numeric {
		if err := attrs.SetNumeric(name, vals); err != nil {
			return err
		}
	}
	for name, labels := range d.categorical {
		ids, labelNames := internCategories(labels)
		if err := attrs.SetCategorical(name, ids, labelNames); err != nil {
			return err
		}
	}
	// Publish only after both halves built, so a failed compile leaves the
	// previous snapshot (if any) intact.
	d.db, d.attrs = db, attrs
	d.dirty = false
	return nil
}

// internCategories maps per-item label strings to dense category ids.
func internCategories(labels []string) ([]int32, []string) {
	uniq := map[string]int32{}
	var names []string
	for _, l := range labels {
		if _, ok := uniq[l]; !ok {
			uniq[l] = 0
			names = append(names, l)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		uniq[n] = int32(i)
	}
	ids := make([]int32, len(labels))
	for i, l := range labels {
		ids[i] = uniq[l]
	}
	return ids, names
}

func (d *Dataset) numericAttr(name string) (attr.Numeric, error) {
	_, attrs, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	num, ok := attrs.Numeric(name)
	if !ok {
		return nil, fmt.Errorf("cfq: unknown numeric attribute %q", name)
	}
	return num, nil
}

// categoricalValues resolves a categorical attribute and, optionally, a
// list of labels into category ids (unknown labels are an error).
func (d *Dataset) categoricalValues(name string, labels []string) (*attr.Categorical, attr.ValueSet, error) {
	_, attrs, err := d.snapshot()
	if err != nil {
		return nil, nil, err
	}
	cat, ok := attrs.Categorical(name)
	if !ok {
		return nil, nil, fmt.Errorf("cfq: unknown categorical attribute %q", name)
	}
	vals := make([]int32, 0, len(labels))
	for _, l := range labels {
		id := cat.CategoryID(l)
		if id < 0 {
			return nil, nil, fmt.Errorf("cfq: attribute %q has no category %q", name, l)
		}
		vals = append(vals, id)
	}
	return cat, attr.NewValueSet(vals...), nil
}

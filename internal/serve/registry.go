package serve

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/cfq"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/txdb"
)

// Registry errors, mapped to HTTP statuses by the handlers.
var (
	ErrNotFound = errors.New("serve: unknown dataset")
	ErrExists   = errors.New("serve: dataset already exists")
	// ErrDropped reports a mutation that raced a concurrent drop: the
	// dataset existed when the request was routed but was durably dropped
	// before the mutation could be logged (409, not 404 — the caller's view
	// was not wrong, just stale).
	ErrDropped = errors.New("serve: dataset was dropped")
)

// Registry holds the served datasets. Each dataset carries one shared
// cfq.Session — the whole point of serving from a daemon: every client's
// queries amortize the same unconstrained-lattice cache — and a generation
// counter that advances on every mutation. The generation is the result
// cache's staleness token: cached results are keyed by it, and a handler
// stores a result only if the generation it read before evaluating is still
// current afterwards.
// When a durable store is attached (SetStore), every create, append, and
// drop is written to the write-ahead log — and fsynced per the store's
// policy — *before* the in-memory registry changes and the request is
// acked, so a crashed daemon recovers exactly what it acknowledged.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry

	st                *store.Store // nil = ephemeral registry
	sessionCacheBytes int64
	allowFiles        bool
}

type regEntry struct {
	// mu serializes mutations and drop on this dataset against each other,
	// so the durable log and the in-memory dataset advance in the same
	// order and a drop cannot interleave with a half-applied append.
	mu      sync.Mutex
	ds      *cfq.Dataset
	sess    *cfq.Session
	gen     uint64
	dropped bool
}

// NewRegistry creates an empty registry. sessionCacheBytes bounds each
// dataset's session lattice cache (0 = unbounded); allowFiles gates the
// DatasetSpec.File source (a server-side path read — off by default).
func NewRegistry(sessionCacheBytes int64, allowFiles bool) *Registry {
	return &Registry{
		entries:           map[string]*regEntry{},
		sessionCacheBytes: sessionCacheBytes,
		allowFiles:        allowFiles,
	}
}

// SetStore attaches the durable store. Call before serving traffic (boot
// recovery), never concurrently with requests.
func (r *Registry) SetStore(st *store.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st = st
}

// Adopt registers a dataset recovered from the durable store at its
// recovered generation, compiled and with a fresh session — the boot-time
// counterpart of Create, with the store replay as the transaction source.
func (r *Registry) Adopt(name string, meta store.Meta, db *txdb.DB, generation uint64) error {
	ds := cfq.WrapDB(db, meta.Items)
	for attr, vals := range meta.Numeric {
		if err := ds.SetNumeric(attr, vals); err != nil {
			return err
		}
	}
	for attr, labels := range meta.Categorical {
		if err := ds.SetCategorical(attr, labels); err != nil {
			return err
		}
	}
	if err := ds.Compile(); err != nil {
		return err
	}
	_, err := r.insert(name, ds, generation)
	return err
}

// insert registers ds under name with a fresh session. The session's cache
// bound is read and applied under r.mu, the lock SetSessionCacheLimit writes
// it under, so a session created while the watchdog retunes the bound ends
// at the last bound set.
func (r *Registry) insert(name string, ds *cfq.Dataset, generation uint64) (*regEntry, error) {
	sess := cfq.NewSession(ds)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if r.sessionCacheBytes > 0 {
		sess.SetCacheLimit(r.sessionCacheBytes)
	}
	e := &regEntry{ds: ds, sess: sess, gen: generation}
	r.entries[name] = e
	return e, nil
}

// SetSessionCacheLimit retunes every live session's lattice-cache bound
// (and the bound future sessions start with). The memory watchdog shrinks
// it under pressure and restores it on recovery; sessions evict eagerly on
// the next touch past the new bound.
func (r *Registry) SetSessionCacheLimit(bytes int64) {
	if bytes <= 0 {
		return
	}
	r.mu.Lock()
	r.sessionCacheBytes = bytes
	sessions := make([]*cfq.Session, 0, len(r.entries))
	for _, e := range r.entries {
		sessions = append(sessions, e.sess)
	}
	r.mu.Unlock()
	for _, sess := range sessions {
		sess.SetCacheLimit(bytes)
	}
}

// Lookup returns a dataset's handle: the dataset, its shared session, and
// the generation current at the time of the call.
func (r *Registry) Lookup(name string) (*cfq.Dataset, *cfq.Session, uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.entries[name]
	if e == nil {
		return nil, nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.ds, e.sess, e.gen, nil
}

// Generation returns the dataset's current generation (for the store-side
// staleness check after an evaluation).
func (r *Registry) Generation(name string) (uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.entries[name]
	if e == nil {
		return 0, false
	}
	return e.gen, true
}

// Create builds a dataset from its spec, compiles it eagerly (so the first
// query pays no compile cost), durably logs it (when a store is attached),
// and registers it under spec.Name. The registry entry appears only after
// the create record is on stable storage: a 201 means the dataset survives
// a crash.
func (r *Registry) Create(spec *DatasetSpec) (DatasetInfo, error) {
	if err := validateName(spec.Name); err != nil {
		return DatasetInfo{}, err
	}
	r.mu.RLock()
	_, dup := r.entries[spec.Name]
	st := r.st
	r.mu.RUnlock()
	if dup {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrExists, spec.Name)
	}
	ds, err := r.build(spec)
	if err != nil {
		return DatasetInfo{}, err
	}
	if err := ds.Compile(); err != nil {
		return DatasetInfo{}, err
	}
	if st != nil {
		// The store reserves the name itself, so two racing creates of the
		// same name resolve there, exactly one durably.
		txs, num, cat := ds.ExportState()
		meta := store.Meta{Items: ds.NumItems(), Numeric: num, Categorical: cat}
		if err := st.Create(spec.Name, meta, txs); err != nil {
			if errors.Is(err, store.ErrExists) {
				return DatasetInfo{}, fmt.Errorf("%w: %q", ErrExists, spec.Name)
			}
			return DatasetInfo{}, err
		}
	}
	e, err := r.insert(spec.Name, ds, 1)
	if err != nil {
		return DatasetInfo{}, err
	}
	// The entry is visible now: a concurrent Mutate may bump e.gen, which it
	// writes under r.mu.
	r.mu.RLock()
	defer r.mu.RUnlock()
	return infoOf(spec.Name, e), nil
}

// Mutate appends transactions to a dataset, recompiles it, and bumps its
// generation — durable-first: the batch is validated, written to the WAL
// (the ack point under the store's fsync policy), and only then applied in
// memory. The caller invalidates result-cache entries for the dataset; the
// session cache invalidates itself via the compiled-snapshot identity.
func (r *Registry) Mutate(name string, txs [][]int) (DatasetInfo, error) {
	r.mu.RLock()
	e := r.entries[name]
	st := r.st
	r.mu.RUnlock()
	if e == nil {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dropped {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrDropped, name)
	}
	// Validate before the WAL write: an invalid batch must fail the request
	// without leaving a record behind.
	if err := e.ds.CheckTransactions(txs); err != nil {
		return DatasetInfo{}, err
	}
	var storeGen uint64
	if st != nil {
		sets, err := store.SetsFromInts(txs, e.ds.NumItems())
		if err != nil {
			return DatasetInfo{}, err
		}
		storeGen, err = st.Append(name, sets)
		if errors.Is(err, store.ErrNotFound) {
			return DatasetInfo{}, fmt.Errorf("%w: %q", ErrDropped, name)
		}
		if err != nil {
			return DatasetInfo{}, err
		}
	}
	if err := e.ds.AddTransactions(txs); err != nil {
		// Validated above, so this is an internal invariant violation. The
		// durable log is now ahead of memory; the next restart replays it.
		return DatasetInfo{}, err
	}
	// Recompile now: the snapshot flips atomically here, not on some later
	// query's first touch, so "mutation acknowledged" means "subsequent
	// queries see the new data".
	if err := e.ds.Compile(); err != nil {
		return DatasetInfo{}, err
	}
	r.mu.Lock()
	if st != nil {
		e.gen = storeGen
	} else {
		e.gen++
	}
	info := infoOf(name, e)
	r.mu.Unlock()
	return info, nil
}

// Drop removes a dataset: the drop record is durable before the entry
// disappears. In-flight queries against its session finish against the
// snapshot they captured — the entry's dataset and session stay valid for
// anyone who looked them up before the drop.
func (r *Registry) Drop(name string) error {
	r.mu.RLock()
	e := r.entries[name]
	st := r.st
	r.mu.RUnlock()
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.mu.Lock()
	if e.dropped {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if st != nil {
		if err := st.Drop(name); err != nil && !errors.Is(err, store.ErrNotFound) {
			e.mu.Unlock()
			return err
		}
	}
	e.dropped = true
	e.mu.Unlock()
	r.mu.Lock()
	if cur := r.entries[name]; cur == e {
		delete(r.entries, name)
	}
	r.mu.Unlock()
	return nil
}

// List describes every registered dataset, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, infoOf(name, e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info describes one dataset.
func (r *Registry) Info(name string) (DatasetInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.entries[name]
	if e == nil {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return infoOf(name, e), nil
}

func infoOf(name string, e *regEntry) DatasetInfo {
	num, cat := e.ds.Attributes()
	return DatasetInfo{
		Name:         name,
		Items:        e.ds.NumItems(),
		Transactions: e.ds.NumTransactions(),
		Generation:   e.gen,
		Numeric:      num,
		Categorical:  cat,
		Session:      e.sess.CacheStats(),
	}
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("missing dataset name")
	}
	// Same rules as the durable store's file naming, so an ephemeral
	// registry and a durable one accept identical names.
	if strings.ContainsAny(name, "/\\\x00 ") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("dataset name %q contains a path separator, space, or NUL, or starts with '.'", name)
	}
	return nil
}

// build constructs the dataset from exactly one transaction source.
func (r *Registry) build(spec *DatasetSpec) (*cfq.Dataset, error) {
	sources := 0
	if spec.Transactions != nil {
		sources++
	}
	if spec.File != "" {
		sources++
	}
	if spec.Gen != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("need exactly one of transactions, file, gen (got %d)", sources)
	}

	var ds *cfq.Dataset
	switch {
	case spec.Gen != nil:
		g := spec.Gen
		items := g.Items
		if items <= 0 {
			items = 1000
		}
		if g.Transactions <= 0 {
			return nil, fmt.Errorf("gen.transactions must be positive")
		}
		seed := g.Seed
		if seed == 0 {
			seed = 1
		}
		p := gen.Default(1)
		p.Seed = seed
		p.NumTransactions = g.Transactions
		p.NumItems = items
		p.NumPatterns = g.Patterns
		if p.NumPatterns <= 0 {
			p.NumPatterns = g.Transactions / 50
			if p.NumPatterns < 10 {
				p.NumPatterns = 10
			}
		}
		db, err := gen.Quest(p)
		if err != nil {
			return nil, err
		}
		ds = cfq.WrapDB(db, items)
		if g.UniformPrices {
			if err := ds.SetNumeric("Price", gen.UniformPrices(items, 0, 1000, seed+1)); err != nil {
				return nil, err
			}
		}
		if g.UniformTypes > 0 {
			vals, names := gen.UniformTypes(items, g.UniformTypes, seed+2)
			labels := make([]string, items)
			for i, v := range vals {
				labels[i] = names[v]
			}
			if err := ds.SetCategorical("Type", labels); err != nil {
				return nil, err
			}
		}
	case spec.File != "":
		if !r.allowFiles {
			return nil, fmt.Errorf("file datasets are disabled (start the server with -allow-files)")
		}
		if spec.Items <= 0 {
			return nil, fmt.Errorf("file datasets need a positive items domain size")
		}
		f, err := os.Open(spec.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds = cfq.NewDataset(spec.Items)
		if err := ds.ReadTransactions(f); err != nil {
			return nil, err
		}
	default:
		if spec.Items <= 0 {
			return nil, fmt.Errorf("inline datasets need a positive items domain size")
		}
		ds = cfq.NewDataset(spec.Items)
		if err := ds.AddTransactions(spec.Transactions); err != nil {
			return nil, err
		}
	}

	for name, vals := range spec.Numeric {
		if err := ds.SetNumeric(name, vals); err != nil {
			return nil, err
		}
	}
	for name, labels := range spec.Categorical {
		if err := ds.SetCategorical(name, labels); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// Package mine implements the levelwise (Apriori-style) frequent-itemset
// engine that every strategy in this repository is built on: plain Apriori,
// the Apriori⁺ baseline, CAP, and the paper's optimized CFQ strategies.
//
// The engine supports the hooks that constrained mining needs:
//
//   - a restricted item Domain (where universal succinct constraints have
//     already filtered the items — the MGF's selection step);
//   - a Required item class realizing one existential succinct predicate:
//     only sets containing at least one required item are candidates, and
//     the internal item order places required items first so the prefix
//     join remains complete (the generate-only property of succinctness);
//   - a per-level list of anti-monotone Checks a candidate must pass before
//     it is counted (frequency-style pushing of anti-monotone constraints,
//     including the Jmax-derived sum bounds of Section 5.2). The checks are
//     data the miner evaluates: a constraint is handed the miner's borrowed
//     scratch set, and at level 2 a sum, max, min or count constraint is
//     tested on its pair form — an add (or max, min, constant) and a compare
//     over the attribute read once per L1 item — without building the set;
//   - step-at-a-time execution (Step) so two lattices can be dovetailed.
//
// The engine works internally in a dense "rank" space ordered
// required-items-first and converts back to original item space at the API
// boundary. It keeps no copy of the database and makes no pass over it:
// level 1 reads the per-item supports the database holds, level 2 the
// frequent cells of the pair supports the database generation holds (each
// item's partner list), and levels ≥ 3 count on the item bit columns the
// same pass built for the generation (columns.go).
package mine

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// Config configures a Levelwise run.
type Config struct {
	// DB is the transaction database. Required.
	DB *txdb.DB
	// MinSupport is the absolute support threshold; values below 1 are
	// treated as 1.
	MinSupport int
	// Domain restricts mining to these items. Nil means all active items.
	Domain itemset.Set
	// Required, when non-nil, is an existential item class: only sets
	// containing at least one Required item are valid, generated and
	// counted (beyond level 1, which is always counted in full since L1 is
	// needed both for joins and for the quasi-succinct reduction constants).
	Required itemset.Set
	// ReportValid, when non-nil, further filters which frequent sets are
	// *reported* as valid. Sets failing it still participate in candidate
	// generation (it encodes additional existential classes, which are not
	// anti-monotone). Called in original item space.
	ReportValid func(itemset.Set) bool
	// Checks, when non-nil, gives the conditions a candidate of the level
	// must pass before it is counted. It is asked once per level, before the
	// level's candidates are filtered, and the list it returns is read only
	// during that level. Each candidate is tested against the checks in
	// order, each test adding one to the check's Counter, and the first that
	// fails charges its Site and discards the candidate, which is never
	// extended — so every condition must be anti-monotone. A condition is
	// evaluated in original item space on a borrowed set: from level 2 on the
	// miner reuses one buffer, so Satisfies must neither modify nor retain it.
	// At level 2 a condition with a pair form (constraint.PairFormOf) is not
	// handed a set at all: it is tested on the two items' attribute values.
	// With Checks non-nil a level passes its "candidate filtering"
	// checkpoints even when the list is empty.
	Checks func(level int) []Check
	// MaxLevel stops mining after this level; 0 means unlimited.
	MaxLevel int
	// Workers sets the number of goroutines that build the database
	// generation's pair supports and item columns, when the run is the first
	// to need them at its threshold. Values below 2 keep the build serial;
	// a parallel one partitions the transactions and sums per-worker counts,
	// so results are identical either way.
	Workers int
	// PresetL1, when non-nil, supplies already-counted level-1 results
	// (original item space). The first Step then charges no candidates and
	// prunes none for frequency: this is how the CFQ optimizer applies the
	// quasi-succinct reduction "immediately after the first iteration of
	// counting" without charging level 1 twice. Entries outside Domain
	// are ignored; entries failing a level-1 check are dropped.
	PresetL1 []Counted
	// Budget, when non-nil, caps the resources the run may consume; an
	// overrun aborts mining with a *BudgetError. Budgets shared across
	// miners accumulate consumption globally.
	Budget *Budget
	// Stats, when non-nil, accumulates work counters.
	Stats *Stats
	// Label, when non-empty, prefixes the miner's trace span names (the
	// CFQ engine labels its dovetailed lattices "S" and "T").
	Label string
	// RequiredSite, when non-empty, is the obs.PruneSet site charged for
	// frequent singletons excluded from the valid output by the Required
	// class (defaults to "<label>:generate"). CAP sets it to name the
	// existential constraint that contributed the class.
	//
	// Pruning attribution contract: the engine increments
	// Stats.CandidatesPruned for every discarded candidate and charges the
	// sites it owns (frequency, Required exclusion, each Check's Site)
	// itself; a rejection by ReportValid is the *closure's* site to charge —
	// a charging closure must charge the context's PruneSet exactly once
	// per false return, so per-site sums keep matching the total.
	RequiredSite string
}

// Counted is a frequent itemset together with its support.
type Counted struct {
	Set     itemset.Set
	Support int
}

// Levelwise is a resumable levelwise miner. Create with New, then call Step
// until done (or RunAll). The context passed to New governs the whole run:
// Step checks it (and the configured Budget) at level and batch boundaries
// and unwinds with a wrapped ctx.Err() or *BudgetError. A miner that has
// failed stays failed; re-running requires a fresh miner.
type Levelwise struct {
	cfg        Config
	stats      *Stats
	guard      *Guard
	tracer     *obs.Tracer
	freqSite   *obs.PruneSite // pruning site for infrequent candidates
	reqSite    *obs.PruneSite // pruning site for Required-excluded singletons
	rankToItem []itemset.Item
	itemToRank []int32 // -1 outside the domain; covers every database item
	nRequired  int     // ranks < nRequired are Required items
	level      int
	done       bool
	err        error

	// State of the previous level (rank space, lex order).
	prevSets [][]int32
	prevSup  []int
	prevKeys map[string]int // rank-set key → index in prevSets; built by keys() on first use
	key      []byte         // scratch for probing prevKeys without allocating

	filterSet itemset.Set  // the set a check borrows at levels ≥ 2
	checks    []levelCheck // the checks of the level being filtered, with their tallies

	l1Ranks []int32 // frequent item ranks after level 1 (all, incl. non-required)
	l1Sup   []int   // supports parallel to l1Ranks

	lastFrequent []Counted // all frequent sets of the last completed level

	pairs *txdb.PairSupports // the generation's table level 2 read; levels ≥ 3 count on its columns
	pre   []uint64           // prefix ANDs while counting a level ≥ 3

	adv *advance // non-nil when the run carries a prior lattice forward (Advance)
}

// New validates cfg and prepares a miner. It reads no transaction, and no
// level does: level 1 comes from the database's item statistics, level 2 from
// its pair supports, and later levels from the item columns of the same
// table. ctx governs the whole run: every Step observes its cancellation at
// checkpoint boundaries.
func New(ctx context.Context, cfg Config) (*Levelwise, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("mine: Config.DB is nil")
	}
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &Stats{}
	}
	domain := cfg.Domain
	if domain == nil {
		domain = cfg.DB.ActiveItems()
	}
	required := cfg.Required
	if required != nil {
		required = required.Intersect(domain)
	}

	// Assign ranks: required items first, then the rest, each ascending.
	rankToItem := make([]itemset.Item, 0, domain.Len())
	if required != nil {
		rankToItem = append(rankToItem, required...)
		rankToItem = append(rankToItem, domain.Minus(required)...)
	} else {
		rankToItem = append(rankToItem, domain...)
	}
	nRequired := 0
	if required != nil {
		nRequired = required.Len()
	}
	maxItem := itemset.Item(-1)
	for _, it := range domain {
		if it > maxItem {
			maxItem = it
		}
	}
	// Sized to cover every database item too, so that any item of an
	// appended row indexes it (deltaPairs).
	itemToRank := make([]int32, max(int(maxItem)+1, cfg.DB.NumItems()))
	for i := range itemToRank {
		itemToRank[i] = -1
	}
	for r, it := range rankToItem {
		itemToRank[it] = int32(r)
	}

	// Every site the engine charges is resolved here, once per run.
	prune := obs.PruningFromContext(ctx)
	var reqSite *obs.PruneSite
	if cfg.Required != nil {
		name := cfg.RequiredSite
		if name == "" {
			name = spanName(cfg.Label, "generate")
		}
		reqSite = prune.Site(name)
	}
	return &Levelwise{
		cfg:        cfg,
		stats:      stats,
		guard:      NewGuard(ctx, cfg.Budget, stats),
		tracer:     obs.FromContext(ctx),
		freqSite:   prune.Site(spanName(cfg.Label, "frequency")),
		reqSite:    reqSite,
		rankToItem: rankToItem,
		itemToRank: itemToRank,
		nRequired:  nRequired,
	}, nil
}

// spanName prefixes a span name with the miner's label ("S:level-2").
func spanName(label, name string) string {
	if label == "" {
		return name
	}
	return label + ":" + name
}

// Level returns the last completed level (0 before the first Step).
func (l *Levelwise) Level() int { return l.level }

// Done reports whether mining has finished (no candidates remain or
// MaxLevel reached).
func (l *Levelwise) Done() bool { return l.done }

// LastFrequent returns every frequent set of the last completed level
// (original item space), including sets that are not valid — the raw
// material for Jmax summaries, which need the complete level. The slice is
// owned by the engine; callers must not mutate it.
func (l *Levelwise) LastFrequent() []Counted { return l.lastFrequent }

// FrequentItems returns, after the first Step, all frequent items of the
// domain in original item space — the set L1 whose attribute projections
// provide the quasi-succinct reduction constants.
func (l *Levelwise) FrequentItems() itemset.Set {
	items := make([]itemset.Item, len(l.l1Ranks))
	for i, r := range l.l1Ranks {
		items[i] = l.rankToItem[r]
	}
	return itemset.New(items...)
}

// FrequentItemCounts returns, after the first Step, every frequent item of
// the domain as a counted singleton — the PresetL1 input for a re-planned
// engine.
func (l *Levelwise) FrequentItemCounts() []Counted {
	out := make([]Counted, len(l.l1Ranks))
	for i, r := range l.l1Ranks {
		out[i] = Counted{Set: itemset.New(l.rankToItem[r]), Support: l.l1Sup[i]}
	}
	return out
}

// toOrig converts a rank-space set to a sorted original-space itemset.
func (l *Levelwise) toOrig(rs []int32) itemset.Set {
	items := make(itemset.Set, len(rs))
	for i, r := range rs {
		items[i] = l.rankToItem[r]
	}
	// Without a Required class rank order is item order.
	if l.nRequired > 0 {
		slices.Sort(items)
	}
	return items
}

// borrow writes rs in original item space, sorted, into the miner's
// filterSet and returns it: the set a check's condition borrows, overwritten
// by the next call.
func (l *Levelwise) borrow(rs ...int32) itemset.Set {
	s := l.filterSet[:0]
	for _, r := range rs {
		s = append(s, l.rankToItem[r])
	}
	// Without a Required class rank order is item order.
	if l.nRequired > 0 {
		slices.Sort(s)
	}
	l.filterSet = s
	return s
}

// appendRankKey appends the canonical key of the rank-space set rs — 4
// bytes per rank — to b, so that the key index can be probed with string(b)
// without allocating.
func appendRankKey(b []byte, rs ...int32) []byte {
	for _, v := range rs {
		u := uint32(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return b
}

// Step advances one level and returns the valid frequent sets discovered at
// that level (original item space, after ReportValid), plus whether mining
// has finished. Calling Step after completion returns (nil, true, nil).
//
// A non-nil error means the run was cancelled (a wrapped ctx.Err()) or
// exceeded its budget (*BudgetError with partial Stats); the miner is then
// permanently done and every later Step returns the same error.
func (l *Levelwise) Step() ([]Counted, bool, error) {
	if l.err != nil {
		return nil, true, l.err
	}
	if l.done {
		return nil, true, nil
	}
	// One span per mining level, carrying the level's Stats delta (the
	// per-phase counting/checking cost the ccc analysis argues about).
	// With tracing disabled this is a single nil comparison.
	var sp *obs.Span
	if l.tracer != nil {
		sp = l.tracer.Start(spanName(l.cfg.Label, fmt.Sprintf("level-%d", l.level+1))).
			WithStats(l.stats.Counters())
	}
	var out []Counted
	var err error
	switch l.level {
	case 0:
		out, err = l.stepOne()
	case 1:
		out, err = l.stepTwo()
	default:
		if l.adv != nil {
			out, err = l.advanceK()
		} else {
			out, err = l.stepK()
		}
	}
	if sp != nil {
		sp.SetAttrs(obs.Int("frequent", len(l.lastFrequent)), obs.Int("valid", len(out)))
		sp.End(l.stats.Counters())
	}
	if err != nil {
		l.err = err
		l.done = true
	} else {
		l.finishLevelCheck()
	}
	if err != nil {
		return nil, true, err
	}
	return out, l.done, nil
}

// Err returns the error that stopped the run, if any.
func (l *Levelwise) Err() error { return l.err }

func (l *Levelwise) finishLevelCheck() {
	if l.cfg.MaxLevel > 0 && l.level >= l.cfg.MaxLevel {
		l.done = true
	}
	if len(l.prevSets) == 0 {
		l.done = true
	}
}

// stepOne establishes level 1 without reading a transaction: every domain
// item (optionally pre-filtered by the level's anti-monotone checks) takes
// its support from the database's per-generation item statistics, unless
// PresetL1 supplies the counts.
func (l *Levelwise) stepOne() ([]Counted, error) {
	if err := l.guard.Check("level 1: candidate generation"); err != nil {
		return nil, err
	}
	n := len(l.rankToItem)
	// One backing array for every singleton this level hands out.
	items := slices.Clone(l.rankToItem)
	single := func(r int) itemset.Set { return itemset.Set(items[r : r+1 : r+1]) }
	counts := make([]int, n)
	// counted marks ranks that were candidates of *this* run: only they can
	// be frequency-pruned below. Preset ranks were counted by an earlier
	// run, which already charged their frequency pruning.
	counted := make([]bool, n)
	filter := l.levelChecks(1)
	if l.cfg.PresetL1 != nil {
		for _, c := range l.cfg.PresetL1 {
			if c.Set.Len() != 1 || int(c.Set[0]) >= len(l.itemToRank) {
				continue
			}
			r := l.itemToRank[c.Set[0]]
			if r < 0 {
				continue // outside the domain
			}
			if filter && !l.passes(c.Set) {
				l.stats.CandidatesPruned++
				continue
			}
			counts[r] = c.Support
		}
	} else {
		sup := l.cfg.DB.ItemSupports()
		for r, it := range l.rankToItem {
			if filter && !l.passes(single(r)) {
				l.stats.CandidatesPruned++
				continue
			}
			counted[r] = true
			l.stats.CandidatesCounted++
			if int(it) < len(sup) {
				counts[r] = sup[it]
			}
		}
	}
	l.flushChecks()

	// A singleton is valid iff it is required (when a Required class exists
	// — one with no member in the domain validates nothing); invalid
	// singletons still feed level-2 generation.
	isValid := func(r int) bool { return l.cfg.Required == nil || r < l.nRequired }
	frequent, valid := 0, 0
	for r, c := range counts {
		if c >= l.cfg.MinSupport {
			frequent++
			if isValid(r) {
				valid++
			}
		}
	}
	var out []Counted
	if valid > 0 {
		out = make([]Counted, 0, valid)
	}
	l.resetLevel(valid)
	l.l1Ranks = make([]int32, 0, frequent)
	l.l1Sup = make([]int, 0, frequent)
	l.lastFrequent = make([]Counted, 0, frequent)
	ranks := make([]int32, 0, valid) // backs the level's rank-space sets
	for r := 0; r < n; r++ {
		// MinSupport >= 1, so ineligible ranks (count 0) are excluded here.
		if counts[r] < l.cfg.MinSupport {
			if counted[r] {
				l.stats.CandidatesPruned++
				l.freqSite.Add(1)
			}
			continue
		}
		l.stats.FrequentSets++
		l.stats.LatticeBytes += setBytes(1)
		l.l1Ranks = append(l.l1Ranks, int32(r))
		l.l1Sup = append(l.l1Sup, counts[r])
		orig := single(r)
		l.lastFrequent = append(l.lastFrequent, Counted{Set: orig, Support: counts[r]})
		if isValid(r) {
			ranks = append(ranks, int32(r))
			l.prevSets = append(l.prevSets, ranks[len(ranks)-1:len(ranks):len(ranks)])
			l.prevSup = append(l.prevSup, counts[r])
			if l.cfg.ReportValid == nil || l.cfg.ReportValid(orig) {
				l.stats.ValidSets++
				out = append(out, Counted{Set: orig, Support: counts[r]})
			} else {
				l.stats.CandidatesPruned++ // site charged by ReportValid
			}
		} else {
			l.stats.CandidatesPruned++
			l.reqSite.Add(1)
		}
	}
	l.level = 1
	return out, nil
}

// stepTwo takes level 2 without materialising it or counting it. The
// candidates are the pairs of L1 positions (p, q), p < q, whose first element
// may lead a valid set — every position, or with a Required class only those
// holding a required rank, which are a prefix because required items hold
// the lowest ranks — numbered row by row in the lexicographic order level 3's
// prefix join expects. Their supports are read from the database
// generation's pair-support table (txdb.DB.PairSupports), which serves every
// run at this threshold or above — built in one pass, or extended from the
// parent generation's table by the appended rows (txdb.DB.Extend). A run
// reads only the table's frequent cells: row p visits the partners of its
// item, so the walk costs the rows and the frequent pairs, not the cells.
// The level's checks are the one per-cell cost left, an arithmetic test where
// they have a pair form; the cells they reject are masked.
//
// The level's checkpoints fall where a walk over every cell would pass them:
// one per genCheckBatch cells filtered, and one per genCheckBatch cells read,
// each taken before the first frequent cell at or past its index, or at the
// end. A checkpoint between two frequent cells sees the state the cells in
// between leave, which is none.
func (l *Levelwise) stepTwo() ([]Counted, error) {
	const genWhere = "level 2: candidate generation"
	if err := l.guard.Check(genWhere); err != nil {
		return nil, err
	}
	n1 := len(l.l1Ranks)
	rows := n1
	if l.nRequired > 0 {
		rows = sort.Search(n1, func(p int) bool { return int(l.l1Ranks[p]) >= l.nRequired })
	}
	cells := 0
	for p := 0; p < rows; p++ {
		if err := l.guard.Check(genWhere); err != nil {
			return nil, err
		}
		cells += n1 - 1 - p
	}

	// Anti-monotone checks: each cell is tested in lex order, and the
	// tallies are flushed before every checkpoint.
	kept := cells
	var mask []uint64
	if l.levelChecks(2) {
		const filterWhere = "level 2: candidate filtering"
		if len(l.checks) == 0 {
			for c := 0; c < cells; c += genCheckBatch {
				if err := l.guard.Check(filterWhere); err != nil {
					return nil, err
				}
			}
		} else {
			l.pairForms()
			mask = make([]uint64, (cells+63)/64)
			// A row is tested in pieces that end where a checkpoint falls.
			c := 0
			for p := 0; p < rows; p++ {
				for q := p + 1; q < n1; {
					if c%genCheckBatch == 0 {
						l.flushChecks()
						if err := l.guard.Check(filterWhere); err != nil {
							return nil, err
						}
					}
					end := min(n1, q+genCheckBatch-c%genCheckBatch)
					rejected := l.filterCells(mask, p, q, end, c)
					kept -= rejected
					l.stats.CandidatesPruned += int64(rejected)
					c += end - q
					q = end
				}
			}
			l.flushChecks()
		}
	}

	l.level = 2
	if kept == 0 {
		l.resetLevel(0)
		return nil, nil
	}

	// Charged before they are read, like every level's candidates (see
	// stepK), and at the 4 bytes a cell of a run's own triangle would take.
	l.stats.CandidatesCounted += int64(kept)
	l.stats.LatticeBytes += 4 * int64(kept)
	const countWhere = "level 2: counting"
	if err := l.guard.Check(countWhere); err != nil {
		return nil, err
	}
	// The table is the generation's and charged to no run, but a run under a
	// lattice-bytes budget does not have one built that alone exceeds it. It
	// is sized at the run's threshold, so a run that would build the table
	// and one that finds it trip alike.
	if b := l.cfg.Budget; b != nil && b.MaxLatticeBytes > 0 {
		if size := l.cfg.DB.PairSupportsBytes(l.cfg.MinSupport); size > b.MaxLatticeBytes {
			return nil, l.guard.overrun(countWhere, ResourceLatticeBytes, b.MaxLatticeBytes, size)
		}
	}
	tab, err := l.cfg.DB.PairSupports(l.guard.Ctx(), l.cfg.MinSupport, l.cfg.Workers)
	l.pairs = tab
	if err != nil {
		// Only the context stops a build; the checkpoint says where.
		if err := l.guard.Check(countWhere); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("mine: %s: %w", countWhere, err)
	}
	// A table built at the run's threshold knows how many of its cells reach
	// it; one built lower counts cells this run does not keep, so the
	// level's state then grows as the frequent cells are read.
	capacity := 0
	if tab.MinSupport() == l.cfg.MinSupport {
		capacity = min(tab.Frequent(), kept)
	}
	var out []Counted
	l.resetLevel(capacity)
	pairs := make([]int32, 0, 2*capacity) // backs the level's rank-space sets
	frequent := 0
	next := genCheckBatch // the index of the next counting checkpoint
	first := 0            // the index of the cell (p, p+1)
	var qs []int          // the row's frequent partners, as L1 positions
	for p := 0; p < rows; p, first = p+1, first+n1-1-p {
		// The table covers every item at the run's threshold; only a
		// PresetL1 entry the database does not support can be missing, and
		// its pairs are infrequent.
		a := tab.Position(l.rankToItem[l.l1Ranks[p]])
		if a < 0 {
			continue
		}
		// The partners ascend with their items, and so do L1 positions
		// within a class: the row's cells come out of order only when a
		// Required class put a later L1 position before a lower item.
		qs = qs[:0]
		for _, b := range tab.Partners(a) {
			if q := l.l1Position(tab.Item(b)); q > p {
				qs = append(qs, q)
			}
		}
		if l.nRequired > 0 {
			slices.Sort(qs)
		}
		for _, q := range qs {
			c := first + q - p - 1
			for ; next <= c; next += genCheckBatch {
				if err := l.guard.Check(countWhere); err != nil {
					return nil, err
				}
			}
			if mask != nil && mask[c>>6]&(1<<(c&63)) != 0 {
				continue
			}
			n := tab.Cell(a, tab.Position(l.rankToItem[l.l1Ranks[q]]))
			if int(n) < l.cfg.MinSupport {
				continue
			}
			frequent++
			pairs = append(pairs, l.l1Ranks[p], l.l1Ranks[q])
			out = l.addFrequent(pairs[len(pairs)-2:len(pairs):len(pairs)], nil, int(n), out)
		}
	}
	for ; next < cells; next += genCheckBatch {
		if err := l.guard.Check(countWhere); err != nil {
			return nil, err
		}
	}
	l.stats.CandidatesPruned += int64(kept - frequent)
	l.freqSite.Add(int64(kept - frequent))
	return out, nil
}

// l1Position returns the L1 position of item it, or -1 when it is not a
// frequent item of the run's domain.
func (l *Levelwise) l1Position(it itemset.Item) int {
	r := l.itemToRank[it]
	if r < 0 {
		return -1
	}
	if q, ok := slices.BinarySearch(l.l1Ranks, r); ok {
		return q
	}
	return -1
}

// resetLevel empties the per-level state before a level's frequent sets are
// added to it. Generation has finished by then, so the previous level's join
// state is no longer read.
func (l *Levelwise) resetLevel(capacity int) {
	l.prevSets = make([][]int32, 0, capacity)
	l.prevSup = make([]int, 0, capacity)
	l.prevKeys = nil
	l.lastFrequent = nil
}

// keys returns the rank-key index of the previous level's sets, building it
// on first use: only a level that joins (subsetPrune) or an advance's Δ rows
// (deltaPairs) read it, so level 1 and a run's last level never build one.
// Every set of a level has the same length, so the keys are cut from one
// string.
func (l *Levelwise) keys() map[string]int {
	if l.prevKeys == nil {
		l.prevKeys = make(map[string]int, len(l.prevSets))
		if len(l.prevSets) > 0 {
			w := 4 * len(l.prevSets[0])
			buf := make([]byte, 0, w*len(l.prevSets))
			for _, s := range l.prevSets {
				buf = appendRankKey(buf, s...)
			}
			all := string(buf)
			for i := range l.prevSets {
				l.prevKeys[all[i*w:(i+1)*w]] = i
			}
		}
	}
	return l.prevKeys
}

// addFrequent records a frequent set of the level under construction — in
// the next level's join state and in LastFrequent — and appends it to out
// when it is valid. orig is c in original item space when the caller already
// holds it (a set carried over from a prior lattice), nil otherwise.
func (l *Levelwise) addFrequent(c []int32, orig itemset.Set, sup int, out []Counted) []Counted {
	l.stats.FrequentSets++
	l.stats.LatticeBytes += setBytes(len(c))
	l.prevSets = append(l.prevSets, c)
	l.prevSup = append(l.prevSup, sup)
	if orig == nil {
		orig = l.toOrig(c)
	}
	l.lastFrequent = append(l.lastFrequent, Counted{Set: orig, Support: sup})
	if l.cfg.ReportValid == nil || l.cfg.ReportValid(orig) {
		l.stats.ValidSets++
		return append(out, Counted{Set: orig, Support: sup})
	}
	l.stats.CandidatesPruned++ // site charged by ReportValid
	return out
}

// stepK generates, prunes and counts level k+1 candidates, k >= 2.
func (l *Levelwise) stepK() ([]Counted, error) {
	k := l.level
	if err := l.guard.Check(fmt.Sprintf("level %d: candidate generation", k+1)); err != nil {
		return nil, err
	}
	cands, err := l.genPrefixJoin(k)
	if err != nil {
		return nil, err
	}

	// Anti-monotone checks, tallied and flushed before every checkpoint.
	if l.levelChecks(k + 1) {
		kept := cands[:0]
		for i, c := range cands {
			if i%genCheckBatch == 0 {
				l.flushChecks()
				if err := l.guard.Check(fmt.Sprintf("level %d: candidate filtering", k+1)); err != nil {
					return nil, err
				}
			}
			if len(l.checks) == 0 || l.passes(l.borrow(c...)) {
				kept = append(kept, c)
			} else {
				l.stats.CandidatesPruned++
			}
		}
		l.flushChecks()
		cands = kept
	}

	l.level = k + 1
	if len(cands) == 0 {
		l.resetLevel(0)
		return nil, nil
	}

	// Charge the candidates before counting them: the in-counting
	// checkpoints then enforce MaxCandidates at batch granularity instead
	// of discovering a whole level's overrun only after it is counted.
	l.stats.CandidatesCounted += int64(len(cands))
	counts, err := l.countCandidates(cands, k+1)
	if err != nil {
		return nil, err
	}

	var out []Counted
	l.resetLevel(len(cands))
	for i, c := range cands {
		if counts[i] < l.cfg.MinSupport {
			l.stats.CandidatesPruned++
			l.freqSite.Add(1)
			continue
		}
		out = l.addFrequent(c, nil, counts[i], out)
	}
	return out, nil
}

// genCheckBatch is how many candidates a generation or filtering loop
// produces between checkpoints: prefix boundaries are too fine to check
// individually, whole levels too coarse on wide lattices.
const genCheckBatch = 8192

// genPrefixJoin joins frequent valid k-sets sharing their first k-1 ranks
// and applies the validity-aware subset prune. Checkpoints fall on prefix
// boundaries, batched by generated candidates. The candidates share one
// backing array.
func (l *Levelwise) genPrefixJoin(k int) ([][]int32, error) {
	var flat []int32 // the kept candidates, k+1 ranks each
	c := make([]int32, k+1)
	nextCheck := 0
	sets := l.prevSets
	for i := 0; i < len(sets); i++ {
		if n := len(flat) / (k + 1); n >= nextCheck {
			if err := l.guard.Check(fmt.Sprintf("level %d: prefix join", k+1)); err != nil {
				return nil, err
			}
			nextCheck = n + genCheckBatch
		}
		for j := i + 1; j < len(sets); j++ {
			if !samePrefix(sets[i], sets[j], k-1) {
				break // lex order: once the prefix changes it stays changed
			}
			copy(c, sets[i])
			c[k] = sets[j][k-1] // lex order ⇒ sets[j] has the larger tail
			if l.subsetPrune(c) {
				flat = append(flat, c...)
			}
		}
	}
	return split(flat, k+1), nil
}

// split cuts flat into consecutive sets of k ranks, each capped so that an
// append to one cannot write into the next.
func split(flat []int32, k int) [][]int32 {
	sets := make([][]int32, len(flat)/k)
	for i := range sets {
		sets[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return sets
}

// subsetPrune reports whether every *valid* k-subset of the (k+1)-candidate
// is frequent. Subsets without a required item were never counted and are
// exempt — this is the validity-aware pruning of constrained levelwise
// mining. Each subset's key is written into l.key, and the map lookup of
// string(l.key) does not allocate.
func (l *Levelwise) subsetPrune(c []int32) bool {
	keys := l.keys()
	for drop := range c {
		first := c[0]
		if drop == 0 {
			first = c[1]
		}
		if l.nRequired > 0 && int(first) >= l.nRequired {
			continue // subset lost its only required item: never counted
		}
		l.key = appendRankKey(appendRankKey(l.key[:0], c[:drop]...), c[drop+1:]...)
		if _, ok := keys[string(l.key)]; !ok {
			return false
		}
	}
	return true
}

func samePrefix(a, b []int32, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunAll steps the miner to completion and returns the valid frequent sets
// per level (index 0 is level 1). On cancellation or budget exhaustion it
// returns the levels completed so far together with the error.
func (l *Levelwise) RunAll() ([][]Counted, error) {
	var levels [][]Counted
	for !l.done {
		sets, _, err := l.Step()
		if err != nil {
			return levels, err
		}
		if l.level > len(levels) {
			levels = append(levels, sets)
		}
	}
	// Trim trailing empty levels.
	for len(levels) > 0 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels, nil
}

// AllFrequent mines all frequent itemsets over the given domain with no
// constraints — the plain Apriori substrate. ctx cancellation and budget
// overruns abort the run at the next checkpoint.
func AllFrequent(ctx context.Context, db *txdb.DB, minSupport int, domain itemset.Set, budget *Budget, stats *Stats) ([][]Counted, error) {
	lw, err := New(ctx, Config{DB: db, MinSupport: minSupport, Domain: domain, Budget: budget, Stats: stats})
	if err != nil {
		return nil, err
	}
	levels, err := lw.RunAll()
	if err != nil {
		return nil, err
	}
	return levels, nil
}

package mine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// predicate is a test condition with no pair form: the miner hands it the
// borrowed set at every level.
type predicate func(itemset.Set) bool

func (f predicate) Satisfies(s itemset.Set) bool { return f(s) }

func (predicate) Classify(itemset.Set) constraint.Class {
	return constraint.Class{AntiMonotone: true}
}

func (predicate) String() string { return "predicate" }

// filterChecks is a Config.Checks of one predicate check per level, built
// from f, charging site (which may be nil).
func filterChecks(f func(level int, s itemset.Set) bool, site *obs.PruneSite) func(int) []Check {
	return func(level int) []Check {
		return []Check{{Cond: predicate(func(s itemset.Set) bool { return f(level, s) }), Site: site}}
	}
}

// referenceFilter asks Config.Checks for level k's list, once, and returns
// the test the reference steps apply to a candidate: each check in order, by
// Satisfies on the set as given, one count and at most one charge at a time.
// It is nil when the miner has no checks.
func (l *Levelwise) referenceFilter(k int) func(itemset.Set) bool {
	if l.cfg.Checks == nil {
		return nil
	}
	checks := slices.Clone(l.cfg.Checks(k))
	return func(s itemset.Set) bool {
		for _, ch := range checks {
			if ch.Counter != nil {
				*ch.Counter++
			}
			if !ch.Cond.Satisfies(s) {
				ch.Site.Add(1)
				return false
			}
		}
		return true
	}
}

// walkCase is one point of TestLevel2WalkMatchesCellWalk's space.
type walkCase struct {
	class  string // "none", "high": a Required class of the highest items
	table  string // "run": a table at the run's σ; "lower": one below it; "preset": a PresetL1 entry no table covers
	checks string // "none", "sum", "sum<", "sum+count", "sum+other"
}

func (c walkCase) String() string {
	return fmt.Sprintf("class=%s/table=%s/checks=%s", c.class, c.table, c.checks)
}

// walkRun is what a run exposes: triangleRun plus the checks' own counters
// and, for a run stopped at a checkpoint, the error.
type walkRun struct {
	triangleRun
	counters [2]int64
	err      string
	errStats Stats
}

// walkFixture is a database with an attribute whose values are quarters, so
// the sums of pairs land exactly on a threshold drawn from them.
type walkFixture struct {
	triangleFixture
	price    []float64
	bound    float64 // the sum of one pair's prices
	maxLevel int
}

func walkFixtures(r *rand.Rand) []walkFixture {
	full := make([]itemset.Set, 30)
	for i := range full {
		// Every row holds most of 140 items: every cell of C(140, 2) >
		// genCheckBatch is frequent, the ones at checkpoint indices too. Its
		// lattice is mined to level 2 only.
		var row []itemset.Item
		for it := range 140 {
			if r.Intn(10) > 0 {
				row = append(row, itemset.Item(it))
			}
		}
		full[i] = itemset.New(row...)
	}
	bases := []triangleFixture{
		{"full", txdb.New(full), 20},
		{"wide", randomDB(r, 300, 150, 24), 5},
	}
	for i := range 6 {
		bases = append(bases, triangleFixture{fmt.Sprintf("random-%d", i), randomDB(r, 60+r.Intn(200), 8+r.Intn(30), 3+r.Intn(8)), 2 + r.Intn(4)})
	}
	var out []walkFixture
	for _, f := range bases {
		price := make([]float64, f.db.NumItems())
		for it := range price {
			price[it] = float64(r.Intn(40)) / 4
		}
		x, y := r.Intn(len(price)), r.Intn(len(price))
		maxLevel := 0
		if f.name == "full" {
			maxLevel = 2
		}
		out = append(out, walkFixture{f, price, price[x] + price[y], maxLevel})
	}
	return out
}

// config is the miner configuration of c over f. The checks count into
// Stats.SetConstraintChecks and run.counters; their rejections charge their
// own sites, and the frequency and class sites are the miner's.
func (c walkCase) config(t *testing.T, f walkFixture, run *walkRun, prune *obs.PruneSet) Config {
	t.Helper()
	db, minSup := f.db, f.minSup
	cfg := Config{DB: db, MinSupport: minSup, MaxLevel: f.maxLevel, Stats: &Stats{},
		Budget: &Budget{Checkpoint: func(where string) error {
			run.events = append(run.events, "checkpoint "+where)
			return nil
		}},
		ReportValid: func(s itemset.Set) bool {
			run.events = append(run.events, "report "+s.Key())
			return true
		},
	}
	if c.class == "high" {
		for it := db.NumItems() * 2 / 3; it < db.NumItems(); it++ {
			cfg.Required = append(cfg.Required, itemset.Item(it))
		}
	}
	price := attr.Numeric(f.price)
	sum := constraint.Agg(attr.Sum, price, "P", constraint.LE, f.bound)
	var second constraint.Constraint
	switch c.checks {
	case "sum<":
		sum = constraint.Agg(attr.Sum, price, "P", constraint.LT, f.bound)
	case "sum+count":
		second = constraint.Card(constraint.LE, 3)
	case "sum+other":
		second = constraint.Agg(attr.Avg, price, "P", constraint.LE, f.bound/2-0.25)
	}
	if c.checks != "none" {
		sumSite, secondSite := prune.Site("test:sum"), prune.Site("test:second")
		cfg.Checks = func(int) []Check {
			checks := []Check{{Cond: sum, Site: sumSite, Counter: &cfg.Stats.SetConstraintChecks}}
			if second != nil {
				checks = append(checks, Check{Cond: second, Site: secondSite, Counter: &run.counters[1]})
			}
			return checks
		}
		// The first check counts into the run's own counter too, through the
		// Stats field it shares.
	}
	switch c.table {
	case "lower":
		if _, err := db.PairSupports(context.Background(), max(1, minSup-2), 1); err != nil {
			t.Fatal(err)
		}
	case "preset":
		first, err := New(context.Background(), Config{DB: db, MinSupport: minSup, Required: cfg.Required})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := first.Step(); err != nil {
			t.Fatal(err)
		}
		cfg.PresetL1 = first.FrequentItemCounts()
		for it, n := range db.ItemSupports() {
			if n > 0 && n < minSup {
				cfg.PresetL1 = append(cfg.PresetL1, Counted{Set: itemset.New(itemset.Item(it)), Support: minSup})
				break
			}
		}
	}
	return cfg
}

// runWalk mines f under c on a fresh database generation, level 2 by step;
// trip, when positive, stops the run at the trip-th level-2 checkpoint past
// candidate generation.
func runWalk(t *testing.T, f walkFixture, c walkCase, trip int, step func(*Levelwise) ([]Counted, error)) walkRun {
	t.Helper()
	var run walkRun
	prune := obs.NewPruneSet()
	f.db = txdb.New(f.db.Transactions())
	cfg := c.config(t, f, &run, prune)
	seen := 0
	record := cfg.Budget.Checkpoint
	cfg.Budget.Checkpoint = func(where string) error {
		if err := record(where); err != nil {
			return err
		}
		if strings.HasPrefix(where, "level 2:") && where != "level 2: candidate generation" {
			if seen++; seen == trip {
				return &BudgetError{Resource: "test"}
			}
		}
		return nil
	}
	lw, err := New(obs.WithPruning(context.Background(), prune), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.Step(); err != nil {
		t.Fatal(err)
	}
	finish := func(err error) walkRun {
		var be *BudgetError
		if errors.As(err, &be) {
			run.err, run.errStats = be.Where, be.Stats
		} else if err != nil {
			t.Fatal(err)
		}
		run.stats = *cfg.Stats
		run.sites = prune.Snapshot()
		run.counters[0] = cfg.Stats.SetConstraintChecks
		if got := prune.Total(); got != run.stats.CandidatesPruned {
			t.Errorf("%v: prune sites sum to %d, CandidatesPruned %d", c, got, run.stats.CandidatesPruned)
		}
		return run
	}
	if !lw.Done() {
		out, err := step(lw)
		if err != nil {
			return finish(err)
		}
		lw.finishLevelCheck()
		run.levels = append(run.levels, out)
		run.frequent = append(run.frequent, lw.LastFrequent())
		run.sets, run.sup, run.keys = lw.prevSets, lw.prevSup, lw.keys()
	}
	for !lw.Done() {
		out, _, err := lw.Step()
		if err != nil {
			return finish(err)
		}
		run.levels = append(run.levels, out)
		run.frequent = append(run.frequent, lw.LastFrequent())
	}
	return finish(nil)
}

// TestLevel2WalkMatchesCellWalk: level 2 read from the frequent partners of
// the generation's pair table, with the checks tested on their pair forms,
// equals the reference that walks and counts every cell and tests each check
// by Satisfies — with no class and with a Required class of the highest items
// (whose rows read partners below their own item), on a table at the run's
// threshold, one below it and with a PresetL1 entry no table covers, under no
// check, a sum check (non-strict and strict, at a bound one pair's prices
// reach exactly), a sum and a count check and a sum and a check with no pair
// form. Frequent sets, their order and supports, the join state, the
// checkpoint and report sequence, every Stats field, every prune site and
// both checks' counters agree, and so does a run stopped at its k-th level-2
// filtering or counting checkpoint, for every k: the same error, where, and
// partial Stats.
func TestLevel2WalkMatchesCellWalk(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	var onBound, lateCheckpoints int
	for _, f := range walkFixtures(r) {
		for _, class := range []string{"none", "high"} {
			for _, table := range []string{"run", "lower", "preset"} {
				for _, checks := range []string{"none", "sum", "sum<", "sum+count", "sum+other"} {
					c := walkCase{class, table, checks}
					want := runWalk(t, f, c, 0, (*Levelwise).referenceStepTwo)
					got := runWalk(t, f, c, 0, (*Levelwise).stepTwo)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v: the partner walk and the cell walk differ in %s", f.name, c, walkDiff(got, want))
					}
					n := countEvent(want.events, "checkpoint level 2: candidate filtering") +
						countEvent(want.events, "checkpoint level 2: counting")
					for k := 1; k <= n; k++ {
						want := runWalk(t, f, c, k, (*Levelwise).referenceStepTwo)
						got := runWalk(t, f, c, k, (*Levelwise).stepTwo)
						if want.err == "" {
							t.Fatalf("%s/%v: the reference passed its level-2 checkpoint %d", f.name, c, k)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%v: stopped at level-2 checkpoint %d, the walk and the cell walk differ in %s",
								f.name, c, k, walkDiff(got, want))
						}
						if strings.HasSuffix(want.err, "counting") && k > 1 && want.errStats.FrequentSets > 0 {
							lateCheckpoints++
						}
					}
				}
			}
		}
		for x := range f.price {
			for y := x + 1; y < len(f.price); y++ {
				if f.price[x]+f.price[y] == f.bound {
					onBound++
				}
			}
		}
	}
	if onBound == 0 || lateCheckpoints == 0 {
		t.Fatalf("%d pairs on a bound, %d trips inside the counting walk: the comparison is vacuous", onBound, lateCheckpoints)
	}
}

// walkDiff names what differs between two runs, with the small values.
func walkDiff(got, want walkRun) string {
	var d []string
	if got.err != want.err || got.errStats != want.errStats {
		d = append(d, fmt.Sprintf("the stop: %q %+v, reference %q %+v", got.err, got.errStats, want.err, want.errStats))
	}
	if got.stats != want.stats {
		d = append(d, fmt.Sprintf("Stats: %+v, reference %+v", got.stats, want.stats))
	}
	if got.counters != want.counters {
		d = append(d, fmt.Sprintf("counters: %v, reference %v", got.counters, want.counters))
	}
	if !reflect.DeepEqual(got.sites, want.sites) {
		d = append(d, fmt.Sprintf("sites: %v, reference %v", got.sites, want.sites))
	}
	if !reflect.DeepEqual(got.events, want.events) {
		d = append(d, fmt.Sprintf("the event sequence (%d and %d events)", len(got.events), len(want.events)))
	}
	if !reflect.DeepEqual(got.levels, want.levels) || !reflect.DeepEqual(got.frequent, want.frequent) {
		d = append(d, "the levels")
	}
	if !reflect.DeepEqual(got.sets, want.sets) || !reflect.DeepEqual(got.sup, want.sup) || !reflect.DeepEqual(got.keys, want.keys) {
		d = append(d, "the join state")
	}
	return strings.Join(d, "; ")
}

// TestPairCompareMatchesOpCmp: the comparison a level-2 check applies to a
// pair's aggregate is its operator's Op.Cmp, for every operator, on values
// below, at and above the constant, signed zeros, infinities and NaN.
func TestPairCompareMatchesOpCmp(t *testing.T) {
	values := []float64{-2.5, -1, math.Copysign(0, -1), 0, 0.25, 1, 7.75, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, op := range []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ, constraint.NE} {
		for _, c := range values {
			l := &Levelwise{checks: []levelCheck{{Check: Check{Cond: constraint.Agg(attr.Sum, attr.Numeric{0}, "A", op, c)}}}}
			l.pairForms()
			ch := &l.checks[0]
			for _, x := range values {
				if got, want := ch.holds(x), op.Cmp(x, c); got != want {
					t.Errorf("%v %v %v: the pair form's comparison gives %v, Op.Cmp %v", x, op, c, got, want)
				}
			}
		}
	}
}

package cfq

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/mine"
	"repro/internal/txdb"
)

// growingDataset is a Quest dataset dense enough for lattices five levels
// deep, with a reserve of 10-row batches to append.
func growingDataset(t *testing.T) (*Dataset, [][][]int) {
	t.Helper()
	p := gen.Default(1)
	p.NumTransactions, p.NumItems, p.NumPatterns, p.AvgTxSize = 1000, 80, 16, 6
	db, err := gen.Quest(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int, db.Len())
	for i := range rows {
		for _, it := range db.Transaction(i) {
			rows[i] = append(rows[i], int(it))
		}
	}
	ds := NewDataset(p.NumItems)
	if err := ds.SetNumeric("Price", gen.UniformPrices(p.NumItems, 0, 100, 2)); err != nil {
		t.Fatal(err)
	}
	const base, batch = 600, 10
	if err := ds.AddTransactions(rows[:base]); err != nil {
		t.Fatal(err)
	}
	var batches [][][]int
	for at := base; at+batch <= len(rows); at += batch {
		batches = append(batches, rows[at:at+batch])
	}
	return ds, batches
}

// answerJSON is the result as a client sees it, without the work counters
// (which say how the answer was produced, and differ by design).
func answerJSON(t *testing.T, res *Result) string {
	t.Helper()
	answer := *res
	answer.Stats, answer.Report = Stats{}, nil
	data, err := json.Marshal(&answer)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkAgainstFresh runs q on sess and holds the answer, byte for byte, to a
// session that has cached nothing and to the engine's Apriori⁺.
func checkAgainstFresh(t *testing.T, sess *Session, q *Query) *Result {
	t.Helper()
	got, err := sess.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(q.ds).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := q.Run(AprioriPlus)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := answerJSON(t, got), answerJSON(t, fresh); a != b {
		t.Fatalf("session answer differs from a fresh session's:\n%s\n%s", a, b)
	}
	if a, b := answerJSON(t, got), answerJSON(t, direct); a != b {
		t.Fatalf("session answer differs from Apriori⁺:\n%s\n%s", a, b)
	}
	if got.PairCount == 0 {
		t.Fatal("query has no answer: the comparison shows nothing")
	}
	return got
}

// priceJoin gives q the 2-var constraint the tests share; the pair listing is
// capped (PairCount is not) to keep the compared JSON small.
func priceJoin(q *Query) *Query {
	return q.Where2(Join(Max, "Price", LE, Min, "Price")).MaxPairs(200)
}

// TestSessionAdvancesAcrossAppends interleaves appends with queries whose
// thresholds move with the data, rise and fall, over shared and separate
// domains: whatever mix of hits, advances and re-mines serves them, every
// answer is the one a session with nothing cached gives.
func TestSessionAdvancesAcrossAppends(t *testing.T) {
	ds, batches := growingDataset(t)
	sess := NewSession(ds)
	low := make([]int, 40)
	for i := range low {
		low[i] = i
	}
	for g, batch := range batches[:24] {
		if err := ds.AddTransactions(batch); err != nil {
			t.Fatal(err)
		}
		queries := []*Query{
			priceJoin(NewQuery(ds).MinSupportFraction(0.05)),                 // moves with the rows
			priceJoin(NewQuery(ds).MinSupport(36 + g)),                       // rises
			priceJoin(NewQuery(ds).MinSupport(64 - g)),                       // falls: below the cached threshold
			priceJoin(NewQuery(ds).MinSupportFraction(0.06)).DomainS(low...), // a second domain
		}
		checkAgainstFresh(t, sess, queries[g%len(queries)])
		checkAgainstFresh(t, sess, queries[(g+1)%len(queries)])
	}
	cs := sess.CacheStats()
	if cs.Advances == 0 || cs.Remines == 0 || cs.Hits == 0 {
		t.Errorf("the mix exercised too little: %+v", cs)
	}
	if cs.Misses != cs.Advances+cs.Remines {
		t.Errorf("misses %d != advances %d + re-mines %d", cs.Misses, cs.Advances, cs.Remines)
	}
}

// TestSessionAbortedAdvance cancels and budget-trips an advance at its
// first, middle and last checkpoint: each abort stores nothing and leaves
// the entry it started from advanceable, so the clean retry advances it and
// answers like a fresh session.
func TestSessionAbortedAdvance(t *testing.T) {
	ds, batches := growingDataset(t)
	query := func() *Query { return priceJoin(NewQuery(ds).MinSupportFraction(0.05)) }
	// twin is driven exactly like sess, one step ahead: its run counts the
	// checkpoints sess's identical advance is about to pass.
	sess, twin := NewSession(ds), NewSession(ds)
	checkAgainstFresh(t, sess, query())
	checkAgainstFresh(t, twin, query())

	for g, batch := range batches[:4] {
		if err := ds.AddTransactions(batch); err != nil {
			t.Fatal(err)
		}
		probe := faultinject.Count()
		if _, err := twin.Run(query().Budget(Budget{Checkpoint: probe.Checkpoint})); err != nil {
			t.Fatal(err)
		}
		n := probe.Seen()
		if n < 3 || twin.CacheStats().Advances != g+1 {
			t.Fatalf("generation %d: %d checkpoints, twin stats %+v", g, n, twin.CacheStats())
		}
		before := sess.CacheStats()
		for _, at := range []int64{1, (n + 1) / 2, n} {
			ctx, cancel := context.WithCancel(context.Background())
			inj := faultinject.Cancel(at, cancel)
			_, err := sess.RunContext(ctx, query().Budget(Budget{Checkpoint: inj.Checkpoint}))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel at %d/%d: err = %v", at, n, err)
			}
			inj = faultinject.Fail(at, &mine.BudgetError{Resource: mine.ResourceCandidates})
			_, err = sess.Run(query().Budget(Budget{Checkpoint: inj.Checkpoint}))
			var be *BudgetError
			if !errors.As(err, &be) || be.Resource != ResourceCandidates {
				t.Fatalf("budget trip at %d/%d: err = %v", at, n, err)
			}
			if cs := sess.CacheStats(); cs != before {
				t.Fatalf("abort at %d/%d touched the cache: %+v, was %+v", at, n, cs, before)
			}
		}
		checkAgainstFresh(t, sess, query())
		if cs := sess.CacheStats(); cs.Advances != before.Advances+1 || cs.Remines != before.Remines {
			t.Fatalf("generation %d: the retry did not advance the entry the aborts left: %+v, was %+v", g, cs, before)
		}
	}
}

// TestSessionAdvanceUnderEviction bounds the cache below two lattices while
// two domains take turns across appends: an evicted domain re-mines, the
// other advances, and the answers never notice.
func TestSessionAdvanceUnderEviction(t *testing.T) {
	ds, batches := growingDataset(t)
	sess := NewSession(ds)
	low := make([]int, 72)
	for i := range low {
		low[i] = i
	}
	whole := func() *Query { return priceJoin(NewQuery(ds).MinSupportFraction(0.05)) }
	part := func() *Query { return whole().DomainS(low...).DomainT(low...) }
	checkAgainstFresh(t, sess, whole())
	one := sess.CacheStats().Bytes
	sess.SetCacheLimit(one + one/3)
	for g, batch := range batches[:12] {
		if err := ds.AddTransactions(batch); err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, sess, whole())
		if g%3 == 2 {
			checkAgainstFresh(t, sess, part())
		}
	}
	cs := sess.CacheStats()
	if cs.Evictions == 0 || cs.Advances == 0 || cs.Remines < 2 || cs.Bytes > cs.LimitBytes {
		t.Errorf("eviction and advance did not both happen within the bound: %+v", cs)
	}
}

// TestSessionAppendDuringAdvance lands an append, and another request's
// advance over it, in the middle of a run that is itself advancing: the run
// answers for the snapshot it captured, does not displace the lattice that
// now covers more rows, and the next query hits that one.
func TestSessionAppendDuringAdvance(t *testing.T) {
	ds, batches := growingDataset(t)
	sess := NewSession(ds)
	query := func() *Query { return priceJoin(NewQuery(ds).MinSupport(32)) }
	checkAgainstFresh(t, sess, query())
	if err := ds.AddTransactions(batches[0]); err != nil {
		t.Fatal(err)
	}
	want, err := query().Run(AprioriPlus) // the snapshot the racing run captures
	if err != nil {
		t.Fatal(err)
	}
	raced := false
	got, err := sess.Run(query().Budget(Budget{Checkpoint: func(where string) error {
		if raced {
			return nil
		}
		raced = true
		if err := ds.AddTransactions(batches[1]); err != nil {
			return err
		}
		_, err := sess.Run(query())
		return err
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := answerJSON(t, got), answerJSON(t, want); a != b {
		t.Errorf("the racing run did not answer for its own snapshot:\n%s\n%s", a, b)
	}
	before := sess.CacheStats()
	if before.Advances != 2 {
		t.Fatalf("stats after the race: %+v, want both runs to have advanced", before)
	}
	res := checkAgainstFresh(t, sess, query())
	if cs := sess.CacheStats(); cs.Misses != before.Misses || res.Stats.DBScans != 0 {
		t.Errorf("the query after the race was not a hit on the newer lattice: %+v, was %+v, scans %d",
			cs, before, res.Stats.DBScans)
	}
}

// TestSessionAttributeMutationKeepsLattice: a mutation that appends no
// transaction recompiles the dataset over the same rows, and the cached
// lattice keeps serving with no pass.
func TestSessionAttributeMutationKeepsLattice(t *testing.T) {
	ds, _ := growingDataset(t)
	sess := NewSession(ds)
	checkAgainstFresh(t, sess, priceJoin(NewQuery(ds).MinSupport(32)))
	before := sess.CacheStats()

	weights := make([]float64, ds.NumItems())
	labels := make([]string, ds.NumItems())
	for i := range weights {
		weights[i], labels[i] = float64(i%7), []string{"a", "b", "c"}[i%3]
	}
	if err := ds.SetNumeric("Weight", weights); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCategorical("Kind", labels); err != nil {
		t.Fatal(err)
	}
	res := checkAgainstFresh(t, sess, priceJoin(NewQuery(ds).MinSupport(32)).WhereS(Aggregate(Max, "Weight", LE, 5)))
	if res.Stats.DBScans != 0 {
		t.Errorf("DBScans = %d after an attribute-only mutation, want 0", res.Stats.DBScans)
	}
	if cs := sess.CacheStats(); cs.Misses != before.Misses || cs.Hits != before.Hits+2 {
		t.Errorf("stats %+v, was %+v: want two more hits and no miss", cs, before)
	}
}

// TestSnapshotsExtend pins the invariant carrying a lattice across
// generations leans on: transactions are append-only, so the leading rows of
// every compiled snapshot are the previous snapshot's, whichever mutator
// grew the dataset and however it was created. Each snapshot is derived from
// the previous one (txdb.DB.Extend), so a session's query on it must answer
// what a fresh session answers over a dataset compiled from scratch.
func TestSnapshotsExtend(t *testing.T) {
	base, _ := gen.Quest(gen.QuestParams{NumTransactions: 60, NumItems: 12, AvgTxSize: 4,
		NumPatterns: 5, AvgPatternSize: 3, Correlation: 0.5, CorruptionMean: 0.5, Seed: 3})
	for name, ds := range map[string]*Dataset{"NewDataset": NewDataset(12), "WrapDB": WrapDB(base, 12)} {
		t.Run(name, func(t *testing.T) {
			prices := gen.UniformPrices(12, 0, 100, 5)
			if err := ds.SetNumeric("Price", prices); err != nil {
				t.Fatal(err)
			}
			prev, _, err := ds.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sess := NewSession(ds)
			extended := 0
			// query answers on the current snapshot in sess, which carries its
			// lattice, in a fresh session, which mines the snapshot from its
			// pair supports and item columns, and in a fresh session over a
			// dataset New compiles from the same rows and prices.
			query := func(db *txdb.DB) {
				t.Helper()
				fresh := WrapDB(txdb.New(db.Transactions()), 12)
				if err := fresh.SetNumeric("Price", prices); err != nil {
					t.Fatal(err)
				}
				want, err := NewSession(fresh).Run(priceJoin(NewQuery(fresh).MinSupport(2)))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []*Session{sess, NewSession(ds)} {
					got, err := s.Run(priceJoin(NewQuery(ds).MinSupport(2)))
					if err != nil {
						t.Fatal(err)
					}
					if a, b := answerJSON(t, got), answerJSON(t, want); a != b {
						t.Fatalf("%d rows: session answer differs from a fresh dataset's:\n%s\n%s", db.Len(), a, b)
					}
				}
				if db.Scans() == 0 {
					extended++
				}
			}
			query(prev)
			mutations := []func() error{
				func() error { return ds.AddTransaction(0, 3, 5) },
				func() error { return ds.AddTransactions([][]int{{1, 2}, {}, {4, 11}}) },
				func() error { return ds.ReadTransactions(strings.NewReader("0 1 2\n7 9\n")) },
				func() error { // appends nothing
					prices = gen.UniformPrices(12, 0, 100, 6)
					return ds.SetNumeric("Price", prices)
				},
				func() error { return ds.AddTransactions([][]int{{2, 3}}) },
			}
			grew := []int{1, 3, 2, 0, 1}
			for i, mutate := range mutations {
				if err := mutate(); err != nil {
					t.Fatal(err)
				}
				next, _, err := ds.snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if next == prev {
					t.Fatalf("mutation %d did not recompile", i)
				}
				if next.Len() != prev.Len()+grew[i] {
					t.Fatalf("mutation %d: %d rows after %d, want %d more", i, next.Len(), prev.Len(), grew[i])
				}
				for r, tx := range prev.Transactions() {
					if !tx.Equal(next.Transaction(r)) {
						t.Fatalf("mutation %d rewrote row %d: %v, was %v", i, r, next.Transaction(r), tx)
					}
				}
				query(next)
				prev = next
			}
			if extended == 0 {
				t.Error("no snapshot extended its parent's pair supports: the comparison is vacuous")
			}
		})
	}
}

package workload

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func qrec(i int, class, strat string, ms float64) *Record {
	return &Record{
		Kind:             KindQuery,
		Time:             time.Unix(int64(i), 0).UTC(),
		Dataset:          "d",
		QueryHash:        QueryHash(fmt.Sprintf("q-%d", i)),
		Class:            class,
		Strategy:         strat,
		Status:           200,
		DurationMS:       ms,
		PruneSites:       obs.Counters{"S:domain-filter:c": 3, "jmax:b1": 4},
		CandidatesPruned: 7,
	}
}

// srec is a line of the "shadow" kind older builds' re-runs wrote.
func srec(class, strat string, ms float64) *Record {
	return &Record{Kind: "shadow", Dataset: "d", Class: class, Strategy: strat, DurationMS: ms}
}

// TestJournalMemRingAndRollups: the journal's only memory ring is the slow
// view — fast records pass through to the rollups (and the disk ring)
// without being held — and shadow lines fold into neither.
func TestJournalMemRingAndRollups(t *testing.T) {
	j, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		rec := qrec(i, "cls-a", "optimized", float64(i+1))
		rec.Slow = i >= 3
		j.Append(rec)
	}
	j.Append(srec("cls-a", "nojmax", 0.5)) // shadow records don't fold into rollups
	view := j.SlowView()
	if len(view) != 2 || view[0].DurationMS != 5 || view[1].DurationMS != 4 {
		t.Fatalf("slow view = %d records, want the two slow ones newest first", len(view))
	}
	rolls := j.Rollups()
	if len(rolls) != 1 || rolls[0].Class != "cls-a" {
		t.Fatalf("rollups = %+v", rolls)
	}
	r := rolls[0]
	if r.Count != 5 || r.MeanMS != 3 || r.MaxMS != 5 || r.MeanPruned != 7 {
		t.Errorf("rollup = %+v", r)
	}
	if r.Strategies["optimized"] != 5 {
		t.Errorf("strategies = %v", r.Strategies)
	}
	st := j.State()
	if st.Appended != 6 || st.SlowRecords != 2 || st.Classes != 1 {
		t.Errorf("state = %+v", st)
	}
}

// TestJournalDropAccounting: every drop path — a closed journal here, the
// case the in-memory counter used to miss — moves State().Dropped and the
// workload_journal_dropped_total / server_slowlog_dropped_total metrics
// together.
func TestJournalDropAccounting(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(qrec(0, "c", "optimized", 1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	dropped, slowDropped := mJournalDropped.Value(), mSlowDropped.Value()
	late := qrec(1, "c", "optimized", 1)
	late.Slow = true
	j.Append(late)
	j.Append(qrec(2, "c", "optimized", 1))
	st := j.State()
	if st.Dropped != 2 || st.Appended != 1 || st.SlowRecords != 0 {
		t.Errorf("state after appends on a closed journal = %+v, want 2 dropped, 1 appended", st)
	}
	if got := mJournalDropped.Value() - dropped; got != st.Dropped {
		t.Errorf("workload_journal_dropped_total moved by %d, State().Dropped = %d", got, st.Dropped)
	}
	if got := mSlowDropped.Value() - slowDropped; got != 1 {
		t.Errorf("server_slowlog_dropped_total moved by %d, want 1 (the slow record)", got)
	}
}

func TestJournalClassOverflow(t *testing.T) {
	j, _ := OpenJournal("")
	defer j.Close()
	const extra = 6
	for i := 0; i < rollupClasses+extra; i++ {
		j.Append(qrec(i, fmt.Sprintf("cls-%02d", i), "optimized", 1))
	}
	rolls := j.Rollups()
	if len(rolls) > rollupClasses+1 {
		t.Fatalf("rollups grew to %d classes, bound is %d+overflow", len(rolls), rollupClasses)
	}
	var other int64
	for _, r := range rolls {
		if strings.HasPrefix(r.Class, "_") {
			other = r.Count
		}
	}
	if other != extra {
		t.Errorf("overflow bucket holds %d, want %d", other, extra)
	}
}

func TestJournalDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j.Append(qrec(i, "cls-a", "optimized", 2))
	}
	j.Append(srec("cls-a", "nojmax", 1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("ReadDir = %d records, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Schema != RecordSchema {
			t.Errorf("schema = %d", rec.Schema)
		}
		if rec.Kind == KindQuery {
			var sum int64
			for _, n := range rec.PruneSites {
				sum += n
			}
			if sum != rec.CandidatesPruned {
				t.Errorf("prune sites sum %d != pruned %d", sum, rec.CandidatesPruned)
			}
		}
	}
	// Replay rebuilds the same rollup view.
	if rolls := Replay(recs).Rollups(); len(rolls) != 1 || rolls[0].Count != 4 {
		t.Errorf("replayed rollups = %+v", rolls)
	}
	// Reopen continues the segment rather than clobbering it.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(qrec(9, "cls-a", "optimized", 2))
	j2.Close()
	if recs, err = ReadDir(dir); err != nil || len(recs) != 6 {
		t.Fatalf("after reopen: %d records, err %v; want 6", len(recs), err)
	}
	names, _ := os.ReadDir(dir)
	for _, e := range names {
		if !strings.HasPrefix(e.Name(), "journal-") {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

func TestClassKeyAndSites(t *testing.T) {
	rep := &obs.ExplainReport{Constraints: []*obs.ConstraintExplain{
		{Variable: "T", Class: "succinct, anti-monotone", EnforcedAt: []string{"candidate generation (domain filter)"}},
		{Variable: "S", Class: "succinct", EnforcedAt: []string{"candidate generation (domain filter)", "final filter"}},
		{Variable: "S", Class: "reduced 1-var condition", EnforcedAt: []string{"pushed into phase-2 counting"}},
	}}
	key := ClassKey(rep)
	if key != "S=succinct; T=succinct, anti-monotone" {
		t.Errorf("class key = %q", key)
	}
	sites := EnforcementSites(rep)
	if len(sites) != 3 || sites[0] != "candidate generation (domain filter)" {
		t.Errorf("sites = %v", sites)
	}
	if ClassKey(nil) != "unconstrained" || ClassKey(&obs.ExplainReport{}) != "unconstrained" {
		t.Error("empty report class key")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(qrec(1, "c", "s", 1))
	if j.SlowView() != nil || j.Rollups() != nil || j.Close() != nil {
		t.Error("nil Journal not inert")
	}
}

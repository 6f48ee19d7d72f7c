package telemetry_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs/workload"
)

// The slow-query log is the journal's slow view: the newest records marked
// Slow, pointers to the records the journal wrote. These two tests keep the
// names they had when the view was a sink of its own in this package (an
// external test package, since workload imports telemetry).

func slowRec(i int) *workload.Record {
	return &workload.Record{
		Kind:       workload.KindQuery,
		Time:       time.Unix(int64(i), 0).UTC(),
		TraceID:    fmt.Sprintf("%032x", i),
		Endpoint:   "query",
		Dataset:    "d",
		Query:      fmt.Sprintf("{(S,T) | freq(S) >= %d}", i),
		Status:     200,
		DurationMS: float64(i),
		Slow:       true,
	}
}

func TestSlowLogMemoryRing(t *testing.T) {
	j, err := workload.OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const n = workload.SlowViewRecords + 5
	for i := 0; i < n; i++ {
		j.Append(slowRec(i))
		fast := slowRec(i)
		fast.Slow = false
		j.Append(fast) // journaled, never in the view
	}
	got := j.SlowView()
	if len(got) != workload.SlowViewRecords {
		t.Fatalf("slow view holds %d records, want %d (ring bound)", len(got), workload.SlowViewRecords)
	}
	if st := j.State(); st.SlowRecords != len(got) || st.Appended != 2*n {
		t.Errorf("state = %+v", st)
	}
	if got[0].DurationMS != n-1 || got[len(got)-1].DurationMS != 5 {
		t.Errorf("view order wrong: newest %v, oldest %v", got[0].DurationMS, got[len(got)-1].DurationMS)
	}
	for _, rec := range got {
		if !rec.Slow || rec.Schema != workload.RecordSchema {
			t.Fatalf("view record = %+v", rec)
		}
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var j *workload.Journal
	j.Append(slowRec(1)) // must not panic
	if j.SlowView() != nil || j.State().SlowRecords != 0 || j.Close() != nil {
		t.Error("nil Journal not inert")
	}
}

package workload

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs/telemetry"
)

// ReadDir loads every journal record from a journal directory, oldest
// first — the offline counterpart of Journal.Append. Unparseable lines are
// an error: the journal is machine-written, so a bad line means truncation
// or corruption worth surfacing, not skipping.
func ReadDir(dir string) ([]*Record, error) {
	var out []*Record
	err := telemetry.ReadSegments(dir, "journal", func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("journal line %d: %w", len(out)+1, err)
		}
		out = append(out, &rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Replay rebuilds the in-memory state (a Journal with no disk ring: live
// rollups and the slow view) from loaded records — cmd/cfqstat's cluster
// view.
func Replay(recs []*Record) *Journal {
	j, _ := OpenJournal("") // memory-only open cannot fail
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range recs {
		j.admitLocked(rec)
	}
	return j
}

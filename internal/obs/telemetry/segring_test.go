package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The TestSlowLog* names date from when the slow-query log owned its own
// ring; what they exercise — rotation and the byte bound, reopening onto the
// newest segment — is the SegmentRing under every JSONL sink, so they hold
// it directly. (The slow view's memory ring and nil-safety are held in
// slowview_test.go, against the journal.)

// line is one JSONL record of roughly the size a slow record had (~150 B).
func line(i int) []byte {
	return []byte(fmt.Sprintf(`{"schema":1,"trace_id":"%032x","endpoint":"query","dataset":"d","query":"{(S,T) | freq(S) >= %d}","status":200,"duration_ms":%d}`, i, i, i))
}

func openRing(t *testing.T, dir string, segmentBytes int64, segments int) *SegmentRing {
	t.Helper()
	r, err := OpenSegmentRing(dir, "slow", segmentBytes, segments)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSlowLogDiskRingRotationAndBound(t *testing.T) {
	dir := t.TempDir()
	const segmentBytes, segments = 256, 2
	l := openRing(t, dir, segmentBytes, segments)
	for i := 0; i < 40; i++ {
		if err := l.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > segments {
		t.Fatalf("%d segments on disk, bound is %d", len(ents), segments)
	}
	var total int64
	for _, e := range ents {
		st, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	// Each segment may exceed SegmentBytes by at most one record.
	if max := int64(segments) * (segmentBytes + 512); total > max {
		t.Errorf("disk ring holds %d bytes, want <= %d", total, max)
	}

	// Every surviving line is valid JSON with the schema stamped.
	for _, e := range ents {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r struct{ Schema int }
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s: bad line %q: %v", e.Name(), sc.Text(), err)
			}
			if r.Schema != 1 {
				t.Errorf("%s: schema = %d (a torn line)", e.Name(), r.Schema)
			}
		}
		f.Close()
	}
}

func TestSlowLogReopenContinuesNumbering(t *testing.T) {
	dir := t.TempDir()
	l := openRing(t, dir, 64<<10, 4)
	for i := 0; i < 10; i++ {
		l.Append(line(i))
	}
	l.Close()

	// Reopen: records must append to the existing newest segment, not
	// clobber it or restart numbering at 1.
	l2 := openRing(t, dir, 64<<10, 4)
	for i := 10; i < 20; i++ {
		l2.Append(line(i))
	}
	l2.Close()

	names := segNames(t, dir)
	if len(names) != 1 || names[0] != "slow-00000001.jsonl" {
		t.Fatalf("segments after reopen = %v, want the original slow-00000001.jsonl", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 20 {
		t.Errorf("segment holds %d records, want 20 (both generations)", lines)
	}

	// A pre-existing high-numbered segment anchors the numbering: the next
	// rotation must mint index+1, not recount from 1.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "slow-00000007.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l3 := openRing(t, dir2, 64, 4)
	l3.Append(line(1)) // line exceeds 64 bytes -> lands after one rotation
	l3.Append(line(2))
	l3.Close()
	if names := segNames(t, dir2); !contains(names, "slow-00000008.jsonl") {
		t.Errorf("rotation after reopen minted %v, want slow-00000008.jsonl present", names)
	}
}

// TestSlowLogReopenZeroLengthSegment: a crash right after rotation leaves
// the newest segment zero-length. Reopen must adopt that segment (not skip
// past it, not restart at 1) and append into it.
func TestSlowLogReopenZeroLengthSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "slow-00000003.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "slow-00000004.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l := openRing(t, dir, 64<<10, 4)
	l.Append(line(1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names := segNames(t, dir)
	if len(names) != 2 || !contains(names, "slow-00000004.jsonl") {
		t.Fatalf("segments after reopen = %v, want the zero-length slow-00000004.jsonl adopted", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, "slow-00000004.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1 {
		t.Errorf("zero-length segment holds %d records after reopen, want 1", lines)
	}
}

func segNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	return names
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

package telemetry

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegmentRing is the bounded on-disk JSONL ring under the workload journal
// (the one per-request record sink): fixed-prefix segment files
// ("<prefix>-%08d.jsonl") rotated once the active one would cross a byte
// budget, with the oldest segments pruned past a count bound. The disk
// budget is therefore roughly Segments × SegmentBytes. Opening an existing
// directory continues the highest segment number (even when that segment is
// zero-length), so restarts append rather than clobber or skip.
//
// The ring is evidence, not a ledger: Append never fsyncs, and callers are
// expected to count — not propagate — write failures.
type SegmentRing struct {
	dir          string
	prefix       string
	segmentBytes int64
	segments     int

	mu       sync.Mutex
	cur      *os.File
	curBytes int64
	curIdx   uint64
	closed   bool
}

// SegmentRingState is a point-in-time view of the ring for /statz-style
// introspection.
type SegmentRingState struct {
	Dir            string `json:"dir"`
	Segments       int    `json:"segments"`
	CurrentSegment uint64 `json:"current_segment"`
	CurrentBytes   int64  `json:"current_bytes"`
}

// OpenSegmentRing opens (creating if needed) a segment ring in dir. The
// prefix names the subsystem ("journal"); segmentBytes and segments bound
// the ring.
func OpenSegmentRing(dir, prefix string, segmentBytes int64, segments int) (*SegmentRing, error) {
	r := &SegmentRing{dir: dir, prefix: prefix, segmentBytes: segmentBytes, segments: segments}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	idxs, err := segmentIndexes(dir, prefix)
	if err != nil {
		return nil, err
	}
	r.curIdx = 1
	if n := len(idxs); n > 0 {
		r.curIdx = idxs[n-1]
	}
	f, err := os.OpenFile(r.segPath(r.curIdx), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if st, err := f.Stat(); err == nil {
		r.curBytes = st.Size()
	}
	r.cur = f
	return r, nil
}

func (r *SegmentRing) segPath(idx uint64) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s-%08d.jsonl", r.prefix, idx))
}

// segmentIndexes lists existing segment indexes for a prefix, ascending.
func segmentIndexes(dir, prefix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix+"-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix+"-"), ".jsonl"), 10, 64)
		if err != nil {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// Append writes one JSONL line (the trailing newline is added here),
// rotating first when the active segment would overflow. Returns an error
// when the record could not be persisted; the in-memory state of the caller
// is unaffected either way.
func (r *SegmentRing) Append(line []byte) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return os.ErrClosed
	}
	if r.curBytes+int64(len(line))+1 > r.segmentBytes {
		r.rotateLocked()
	}
	if r.cur == nil {
		return os.ErrInvalid
	}
	n, err := r.cur.Write(append(line, '\n'))
	r.curBytes += int64(n)
	return err
}

// rotateLocked opens the next segment and prunes the ring to its bound.
func (r *SegmentRing) rotateLocked() {
	// The handle is being abandoned either way; the close error carries no
	// durability obligation for a diagnostic ring.
	_ = r.cur.Close()
	r.cur = nil
	r.curIdx++
	f, err := os.OpenFile(r.segPath(r.curIdx), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	r.cur = f
	r.curBytes = 0
	if idxs, err := segmentIndexes(r.dir, r.prefix); err == nil {
		for len(idxs) > r.segments {
			if err := os.Remove(r.segPath(idxs[0])); err != nil {
				break
			}
			idxs = idxs[1:]
		}
	}
}

// State snapshots the ring for introspection endpoints.
func (r *SegmentRing) State() SegmentRingState {
	if r == nil {
		return SegmentRingState{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	if idxs, err := segmentIndexes(r.dir, r.prefix); err == nil {
		n = len(idxs)
	}
	return SegmentRingState{Dir: r.dir, Segments: n, CurrentSegment: r.curIdx, CurrentBytes: r.curBytes}
}

// Close closes the active segment. Further Appends fail with os.ErrClosed.
func (r *SegmentRing) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur = nil
	return err
}

// ReadSegments streams every line of every segment with the given prefix in
// dir, oldest segment first — the offline counterpart of Append used by
// cmd/cfqstat and journal rebuilds. Lines longer than 16 MiB are an error.
func ReadSegments(dir, prefix string, fn func(line []byte) error) error {
	idxs, err := segmentIndexes(dir, prefix)
	if err != nil {
		return err
	}
	for _, idx := range idxs {
		path := filepath.Join(dir, fmt.Sprintf("%s-%08d.jsonl", prefix, idx))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			if err := fn(sc.Bytes()); err != nil {
				_ = f.Close() // read-only handle; the walk error wins
				return err
			}
		}
		err = sc.Err()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

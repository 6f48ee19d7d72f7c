package cfq

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
)

// AppendJSON appends the result's JSON document to dst: exactly the bytes
// encoding/json's reflection encoder writes for the Result's fields, written
// without reflection. Only a traced run's Report is handed to encoding/json.
// MarshalJSON delegates here, so the CLI's -json output, json.Marshal(res)
// and the daemon's responses share one definition of the bytes.
//
// A valid set is encoded once: a pair's side that is still the ValidS/ValidT
// entry the engine copied it from, the entry itself, and its level window
// repeat the bytes first written for it. Anything else — a pair or a level a
// caller replaced — is encoded in full.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	s, t, spans := r.memos()
	if spans != nil {
		defer spanPool.Put(spans)
	}
	dst = append(dst, `{"Pairs":`...)
	if r.Pairs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		indexed := len(r.pairIdx) == len(r.Pairs)
		for i := range r.Pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			si, ti := -1, -1
			if indexed {
				si, ti = int(r.pairIdx[i].SI), int(r.pairIdx[i].TI)
			}
			dst = append(dst, `{"S":`...)
			dst = s.appendSet(dst, &r.Pairs[i].S, si)
			dst = append(dst, `,"T":`...)
			dst = t.appendSet(dst, &r.Pairs[i].T, ti)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"PairCount":`...)
	dst = strconv.AppendInt(dst, r.PairCount, 10)
	atS, atT := windows(r.LevelsS, r.ValidS), windows(r.LevelsT, r.ValidT)
	dst = append(dst, `,"ValidS":`...)
	dst = s.appendValid(dst, atS)
	dst = append(dst, `,"ValidT":`...)
	dst = t.appendValid(dst, atT)
	dst = append(dst, `,"LevelsS":`...)
	dst = appendWindows(dst, r.LevelsS, atS)
	dst = append(dst, `,"LevelsT":`...)
	dst = appendWindows(dst, r.LevelsT, atT)
	dst = append(dst, `,"Stats":`...)
	dst = r.Stats.appendJSON(dst)
	if r.Report != nil {
		rep, err := json.Marshal(r.Report)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"Report":`...)
		dst = append(dst, rep...)
	}
	return append(dst, '}'), nil
}

// setMemo writes one side's valid sets, each at most once: where the bytes
// of sets[i] were first written into dst is remembered, and every later
// occurrence of the set copies them.
type setMemo struct {
	sets  []FrequentSet // ValidS or ValidT
	spans []int         // [lo, hi) in dst for sets[i] at 2i, 2i+1; hi == 0 until written
}

// spanPool recycles the memos' spans between encodings: a response of
// thousands of pairs would otherwise allocate 16 bytes per set they name.
var spanPool = sync.Pool{New: func() any { return new([]int) }}

// memos sizes each side's memo to the highest position a pair names — the
// pairs are the only repeats of a set outside its own entry and level — on
// spans from spanPool, which the caller returns when done (nil: no memo).
func (r *Result) memos() (s, t setMemo, spans *[]int) {
	s.sets, t.sets = r.ValidS, r.ValidT
	if len(r.pairIdx) != len(r.Pairs) || len(r.Pairs) == 0 {
		return s, t, nil
	}
	nS, nT := 0, 0
	for _, p := range r.pairIdx {
		nS, nT = max(nS, int(p.SI)+1), max(nT, int(p.TI)+1)
	}
	nS, nT = min(nS, len(r.ValidS)), min(nT, len(r.ValidT))
	spans = spanPool.Get().(*[]int)
	buf := slices.Grow((*spans)[:0], 2*(nS+nT))[:2*(nS+nT)]
	clear(buf)
	*spans = buf
	s.spans, t.spans = buf[:2*nS:2*nS], buf[2*nS:]
	return s, t, spans
}

// appendSet appends the JSON of fs, named as sets[i] (i < 0: no entry).
func (m *setMemo) appendSet(dst []byte, fs *FrequentSet, i int) []byte {
	if i < 0 || 2*i >= len(m.spans) || !sameSet(fs, &m.sets[i]) {
		return fs.appendJSON(dst)
	}
	if lo, hi := m.spans[2*i], m.spans[2*i+1]; hi > 0 {
		return append(dst, dst[lo:hi]...)
	}
	lo := len(dst)
	dst = fs.appendJSON(dst)
	m.spans[2*i], m.spans[2*i+1] = lo, len(dst)
	return dst
}

// appendValid appends the side's sets as a JSON array. at holds the
// positions in sets where level windows start and end (see windows); each
// is replaced by the offset in dst where that set's bytes begin, and the
// end of the array by its last set's end plus one, as if a comma followed.
// Window k's sets, commas between them, are then dst[at[k] : at[k+1]-1].
func (m *setMemo) appendValid(dst []byte, at []int) []byte {
	if m.sets == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	b := 0
	for i := range m.sets {
		if i > 0 {
			dst = append(dst, ',')
		}
		for ; b < len(at) && at[b] == i; b++ {
			at[b] = len(dst)
		}
		dst = m.appendSet(dst, &m.sets[i], i)
	}
	for ; b < len(at); b++ {
		at[b] = len(dst) + 1
	}
	return append(dst, ']')
}

// windows returns, when each level is the next window of flat, set for set —
// as convertLevels builds them — the position in flat each level starts at
// and the end of the last one; nil otherwise.
func windows(levels [][]FrequentSet, flat []FrequentSet) []int {
	if levels == nil {
		return nil
	}
	at := make([]int, 1, len(levels)+1)
	for _, lv := range levels {
		lo := at[len(at)-1]
		if len(lv) > len(flat)-lo {
			return nil
		}
		for j := range lv {
			if !sameSet(&lv[j], &flat[lo+j]) {
				return nil
			}
		}
		at = append(at, lo+len(lv))
	}
	return at
}

// appendWindows appends levels as a JSON array, copying each non-empty
// level's bytes from the flat array appendValid wrote at the offsets at;
// with no offsets every level is encoded.
func appendWindows(dst []byte, levels [][]FrequentSet, at []int) []byte {
	if at == nil {
		return appendLevels(dst, levels)
	}
	dst = append(dst, '[')
	for k, lv := range levels {
		if k > 0 {
			dst = append(dst, ',')
		}
		switch {
		case lv == nil:
			dst = append(dst, "null"...)
		case len(lv) == 0:
			dst = append(dst, "[]"...)
		default:
			dst = append(dst, '[')
			dst = append(dst, dst[at[k]:at[k+1]-1]...)
			dst = append(dst, ']')
		}
	}
	return append(dst, ']')
}

// sameSet reports whether a and b encode alike because they are one set: the
// same Items array at the same length, and the same support.
func sameSet(a, b *FrequentSet) bool {
	if len(a.Items) != len(b.Items) || a.Support != b.Support {
		return false
	}
	if len(a.Items) == 0 {
		return (a.Items == nil) == (b.Items == nil)
	}
	return &a.Items[0] == &b.Items[0]
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r *Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

func (fs *FrequentSet) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"Items":`...)
	if fs.Items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, it := range fs.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(it), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Support":`...)
	dst = strconv.AppendInt(dst, int64(fs.Support), 10)
	return append(dst, '}')
}

func appendSets(dst []byte, sets []FrequentSet) []byte {
	if sets == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range sets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = sets[i].appendJSON(dst)
	}
	return append(dst, ']')
}

func appendLevels(dst []byte, levels [][]FrequentSet) []byte {
	if levels == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, lv := range levels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSets(dst, lv)
	}
	return append(dst, ']')
}

func (s *Stats) appendJSON(dst []byte) []byte {
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`{"CandidatesCounted":`, s.CandidatesCounted},
		{`,"ItemConstraintChecks":`, s.ItemConstraintChecks},
		{`,"SetConstraintChecks":`, s.SetConstraintChecks},
		{`,"PairChecks":`, s.PairChecks},
		{`,"CandidatesPruned":`, s.CandidatesPruned},
		{`,"FrequentSets":`, s.FrequentSets},
		{`,"ValidSets":`, s.ValidSets},
		{`,"DBScans":`, s.DBScans},
		{`,"LatticeBytes":`, s.LatticeBytes},
		{`,"Checkpoints":`, s.Checkpoints},
	} {
		dst = append(dst, f.key...)
		dst = strconv.AppendInt(dst, f.v, 10)
	}
	return append(dst, '}')
}

package cfq

import (
	"encoding/json"
	"strconv"
)

// AppendJSON appends the result's JSON document to dst: exactly the bytes
// encoding/json's reflection encoder writes for the Result's fields, written
// without reflection. Only a traced run's Report is handed to encoding/json.
// MarshalJSON delegates here, so the CLI's -json output, json.Marshal(res)
// and the daemon's responses share one definition of the bytes.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"Pairs":`...)
	if r.Pairs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"S":`...)
			dst = r.Pairs[i].S.appendJSON(dst)
			dst = append(dst, `,"T":`...)
			dst = r.Pairs[i].T.appendJSON(dst)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"PairCount":`...)
	dst = strconv.AppendInt(dst, r.PairCount, 10)
	dst = append(dst, `,"ValidS":`...)
	dst = appendSets(dst, r.ValidS)
	dst = append(dst, `,"ValidT":`...)
	dst = appendSets(dst, r.ValidT)
	dst = append(dst, `,"LevelsS":`...)
	dst = appendLevels(dst, r.LevelsS)
	dst = append(dst, `,"LevelsT":`...)
	dst = appendLevels(dst, r.LevelsT)
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

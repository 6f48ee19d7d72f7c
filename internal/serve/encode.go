package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"

	"repro/cfq"
	"repro/internal/jsonenc"
)

// The answer is encoded once. A miss renders its cfq.Result into a pooled
// buffer (Result.AppendJSON) and keeps one exact-size copy: the bytes the
// result cache stores, collapse followers receive and the response carries.
// Every delivery writes the envelope around those bytes as stored, byte for
// byte what json.NewEncoder(w).Encode(&QueryResponse{…}) writes, without
// re-validating them.

// maxPooledBuf bounds the buffers kept for reuse, so one unusually large
// answer is not pinned in the pool.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// encodeResult renders res and returns an exact-size copy of its bytes.
func encodeResult(res *cfq.Result) (json.RawMessage, error) {
	bp := getBuf()
	defer putBuf(bp)
	b, err := res.AppendJSON(*bp)
	*bp = b
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// appendQueryResponse appends r as json.Encoder.Encode writes it, trailing
// newline included, with Result and Explain copied in as they are.
func appendQueryResponse(dst []byte, r *QueryResponse) ([]byte, error) {
	dst = append(dst, `{"schema":`...)
	dst = strconv.AppendInt(dst, int64(r.Schema), 10)
	dst = append(dst, `,"request_id":`...)
	dst = jsonenc.AppendString(dst, r.RequestID)
	if r.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = jsonenc.AppendString(dst, r.TraceID)
	}
	dst = append(dst, `,"dataset":`...)
	dst = jsonenc.AppendString(dst, r.Dataset)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	dst = append(dst, `,"strategy":`...)
	dst = jsonenc.AppendString(dst, r.Strategy)
	if r.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if r.Collapsed {
		dst = append(dst, `,"collapsed":true`...)
	}
	if len(r.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, r.Result...)
	}
	if len(r.Explain) > 0 {
		dst = append(dst, `,"explain":`...)
		dst = append(dst, r.Explain...)
	}
	if r.Report != nil {
		rep, err := json.Marshal(r.Report)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"report":`...)
		dst = append(dst, rep...)
	}
	return append(dst, "}\n"...), nil
}

// Package telemetry is the request-level observability layer above the
// internal/obs engine substrate: W3C trace-context propagation and the
// bounded on-disk segment ring the workload journal writes. cfqd wires it
// around every request; cfqload speaks the same trace headers, so
// operator-side records and client-side reports join on one id.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// TraceContext is the parsed (or minted) W3C trace-context of one request.
// TraceID correlates every artifact of the request — slog lines, the obs
// span tree, the response envelope, the slow-query record, and whatever
// distributed pieces a multi-node deployment adds. SpanID is this
// process's own span within the trace; ParentSpanID is the caller's, when
// the trace arrived over the wire.
type TraceContext struct {
	TraceID      string // 32 lowercase hex chars, never all-zero
	SpanID       string // 16 lowercase hex chars, this hop's span
	ParentSpanID string // caller's span id ("" when minted locally)
	Sampled      bool
	Remote       bool // true when the trace id arrived on the request
}

// Traceparent renders the context as a `traceparent` header value
// (version 00).
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header. It accepts any version
// except ff (per spec, unknown versions parse by the 00 layout) and
// rejects malformed or all-zero ids.
func ParseTraceparent(h string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	ver, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return TraceContext{}, false
	}
	if len(traceID) != 32 || !isLowerHex(traceID) || allZero(traceID) {
		return TraceContext{}, false
	}
	if len(spanID) != 16 || !isLowerHex(spanID) || allZero(spanID) {
		return TraceContext{}, false
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return TraceContext{}, false
	}
	return TraceContext{
		TraceID:      traceID,
		ParentSpanID: spanID,
		SpanID:       randHex(8),
		Sampled:      flags[1]&1 == 1,
		Remote:       true,
	}, true
}

// EnsureTrace parses the incoming traceparent header, minting a fresh
// sampled trace when the header is absent or malformed. The returned
// context always has a valid TraceID and a new local SpanID.
func EnsureTrace(header string) TraceContext {
	if tc, ok := ParseTraceparent(header); ok {
		return tc
	}
	return MintTrace()
}

// MintTrace creates a new sampled trace rooted at this process.
func MintTrace() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Sampled: true}
}

// MaxRequestIDLen bounds accepted client-supplied request ids.
const MaxRequestIDLen = 128

// CleanRequestID validates and clamps a client-supplied X-Request-ID:
// runes outside a conservative header-safe set ([A-Za-z0-9._:/+=-]) are
// dropped, the result is truncated to MaxRequestIDLen, and an id that
// cleans to nothing returns "" (the caller mints its own). The cleaned id
// is safe to echo in response headers, slog lines, and JSON envelopes.
func CleanRequestID(id string) string {
	if len(id) > 4*MaxRequestIDLen {
		id = id[:4*MaxRequestIDLen] // don't scan unbounded junk
	}
	var b strings.Builder
	for _, c := range []byte(id) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '/' || c == '+' || c == '=' || c == '-':
		default:
			continue
		}
		b.WriteByte(c)
		if b.Len() == MaxRequestIDLen {
			break
		}
	}
	return b.String()
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// randHex returns 2n lowercase hex chars of cryptographic randomness.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is unrecoverable process state; a fixed
		// non-zero fallback keeps ids structurally valid.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	return hex.EncodeToString(b)
}

// Package workload is the engine's per-request ground truth: a durable
// journal of what ran, what it looked like, what it cost and why it was
// slow, rolled up per constraint class.
//
// One JSONL Record is the whole per-request fact: canonical query hash,
// the constraint classification and enforcement sites of the plan that
// ran (from its ExplainReport), the executed strategy and the planner's
// decision, admission outcome (priority class, queue wait, collapse),
// per-phase span deltas, per-site pruning counts (summing to
// CandidatesPruned by the attribution contract), budget outcome and cache
// hit/miss. A record marked Slow additionally carries the query text and
// the analyzed plan report; the slow-query log is the journal's view of
// those records, not a second store. Lines older builds wrote — other kinds,
// and keys this Record no longer has — still load; rollups fold only
// KindQuery lines and ignore the unknown keys.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"repro/internal/obs"
)

// RecordSchema versions the journal record shape.
const RecordSchema = 1

// Record kinds. Rollups read KindQuery records only.
const (
	KindQuery   = "query"   // a user-facing /v1/query completion
	KindRequest = "request" // a slow or failed request on another query endpoint (explain, explain-analyze, prepare)
)

// Record is one journal line.
type Record struct {
	Schema int       `json:"schema"`
	Kind   string    `json:"kind"`
	Time   time.Time `json:"time"`
	// TraceID / RequestID join the record to the request's telemetry.
	TraceID   string `json:"trace_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// Endpoint is the API endpoint that served the request (empty on lines
	// written before the slow log folded in, which are all /v1/query).
	Endpoint string `json:"endpoint,omitempty"`
	// Dataset / Generation pin the snapshot the query ran against.
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation,omitempty"`
	// QueryHash identifies the canonical query text; Class is the
	// constraint-classification key (ClassKey) rollups aggregate by.
	QueryHash string `json:"query_hash"`
	Class     string `json:"class,omitempty"`
	// Strategy is the request's mode: "session", "auto", or the fixed
	// strategy it named (a prepared handle's strategy).
	Strategy string `json:"strategy,omitempty"`
	// Status / Code describe the outcome (Code for HTTP error outcomes).
	Status int    `json:"status,omitempty"`
	Code   string `json:"code,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// Priority / QueueWaitMS / Collapsed / DegradationLevel are the
	// admission side of the request: its priority class, how long it waited
	// for a worker slot (the cost model's queueing term, outside any plan's
	// control), whether it was answered by another request's evaluation, and
	// the degradation level it finished under (1 while the memory watchdog
	// held the server degraded; journals written before it was one state
	// carry levels 1–3).
	Priority         string  `json:"priority,omitempty"`
	QueueWaitMS      float64 `json:"queue_wait_ms,omitempty"`
	Collapsed        bool    `json:"collapsed,omitempty"`
	DegradationLevel int     `json:"degradation_level,omitempty"`
	// DurationMS is the wall time; Phases maps span paths (under the
	// request's root) to wall milliseconds — the breakdown of DurationMS.
	DurationMS float64            `json:"duration_ms"`
	Phases     map[string]float64 `json:"phases,omitempty"`
	// Plan is the planner's decision (chosen strategy, the rule that fired)
	// — only on requests that executed a planned or replayed plan, never on
	// cache hits or collapse followers. Journals written while the planner
	// was a cost model carry source/cost/rejected keys, which load and are
	// ignored.
	Plan *obs.PlanChoice `json:"plan,omitempty"`
	// PruneSites is the attributed pruning; by the attribution contract the
	// values sum to CandidatesPruned.
	PruneSites       obs.Counters `json:"prune_sites,omitempty"`
	CandidatesPruned int64        `json:"candidates_pruned"`
	// EnforcedAt is the union of the enforcement sites of the plan that ran
	// (EnforcementSites of its report).
	EnforcedAt []string `json:"enforced_at,omitempty"`
	// Slow marks a record that crossed ThresholdMS, exhausted its budget or
	// failed server-side; only such records carry the canonical Query text
	// and Explain, the report of the plan that ran analyzed with the run's
	// actual pruning (Explain.SumPruned() == CandidatesPruned).
	Slow        bool               `json:"slow,omitempty"`
	ThresholdMS float64            `json:"threshold_ms,omitempty"`
	Query       string             `json:"query,omitempty"`
	Explain     *obs.ExplainReport `json:"explain,omitempty"`
}

// QueryHash derives the stable journal key for a canonical query text.
func QueryHash(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:8])
}

// ClassKey folds an ExplainReport's constraint classifications into the
// class key the rollups aggregate by: the sorted multiset of
// "<variable>=<class>" tags. Entries only an analyzed run adds (reduced
// conditions, bounds) are excluded, so a plan report and its analyzed form
// share one key.
func ClassKey(rep *obs.ExplainReport) string {
	if rep == nil {
		return "unconstrained"
	}
	var tags []string
	for _, ce := range rep.Constraints {
		if ce.Class == "reduced 1-var condition" {
			continue
		}
		tags = append(tags, ce.Variable+"="+ce.Class)
	}
	if len(tags) == 0 {
		return "unconstrained"
	}
	sort.Strings(tags)
	out := tags[0]
	for _, t := range tags[1:] {
		out += "; " + t
	}
	return out
}

// EnforcementSites flattens the report's per-constraint enforcement sites
// into a sorted, deduplicated union.
func EnforcementSites(rep *obs.ExplainReport) []string {
	if rep == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, ce := range rep.Constraints {
		for _, at := range ce.EnforcedAt {
			seen[at] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for at := range seen {
		out = append(out, at)
	}
	sort.Strings(out)
	return out
}

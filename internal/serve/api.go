// Package serve is the HTTP/JSON query service over the cfq engine: a
// dataset registry (one shared cfq.Session per dataset, so the
// unconstrained-lattice cache is amortized across all clients), a bounded
// worker pool with an admission queue, per-request budgets and deadlines
// clamped by server maxima, and a normalized-query result cache above the
// session cache.
//
// The wire contract mirrors the engine's observability contract: responses
// carry "schema": 1 (obs.ReportSchema) and embed the same Result /
// ExplainReport / RunReport JSON the cmd/cfq CLI emits, so a client of the
// CLI parses daemon responses with the same code.
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/cfq"
	"repro/internal/obs"
	"repro/internal/obs/workload"
)

// SchemaVersion is the wire version of every response envelope. It tracks
// obs.ReportSchema: the embedded Result / ExplainReport documents are the
// versioned payloads, and the envelope does not revise independently.
const SchemaVersion = obs.ReportSchema

// QueryRequest is the body of POST /v1/query, /v1/explain and
// /v1/explain-analyze. Query carries the textual CFQ language of
// cfq.ParseQuery; everything else tunes the evaluation. Zero values defer
// to server defaults; overrides are clamped by server maxima.
type QueryRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Query is the CFQ text, e.g.
	// "{(S,T) | freq(S) >= 100 & max(S.Price) <= min(T.Price)}".
	Query string `json:"query"`
	// Strategy selects the computation strategy for engine-driven
	// evaluations (explain, explain-analyze, and no_session queries):
	// optimized, nojmax, cap, apriori, fm, sequential, or auto (the
	// planner picks). Empty uses the server's default strategy.
	Strategy string `json:"strategy,omitempty"`
	// Prepared executes a plan prepared via POST /v1/prepare by its handle
	// (query endpoints only; Query/Strategy must be empty). A handle whose
	// dataset generation has moved is rejected with 409 stale_generation —
	// never silently answered from the stale snapshot.
	Prepared string `json:"prepared,omitempty"`
	// MinSupport / MinSupportFrac set the default frequency thresholds for
	// freq() conjuncts the query leaves implicit (absolute count wins over
	// fraction; both zero uses the server default).
	MinSupport     int     `json:"min_support,omitempty"`
	MinSupportFrac float64 `json:"min_support_frac,omitempty"`
	// MaxPairs caps materialized answer pairs (0 = server default; clamped
	// by the server maximum).
	MaxPairs int `json:"max_pairs,omitempty"`
	// TimeoutMS overrides the server's default evaluation deadline,
	// clamped by the server maximum. The deadline is enforced as a soft
	// budget deadline, so an overrun returns partial stats.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget overrides the server's default resource budget, clamped
	// field-by-field by the server maxima.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// NoCache bypasses the result cache (both lookup and store).
	NoCache bool `json:"no_cache,omitempty"`
	// NoSession evaluates through the one-shot engine (Query.RunContext
	// with Strategy) instead of the dataset's shared Session.
	NoSession bool `json:"no_session,omitempty"`
	// Trace attaches the per-phase RunReport to the response. Traced
	// requests bypass the result cache (the report describes this run).
	Trace bool `json:"trace,omitempty"`
	// Priority overrides the request's admission class: "interactive"
	// (shed last) or "batch" (shed first under pressure). Empty uses the
	// endpoint default — interactive for inline /v1/query, batch for
	// prepared replays and the explain endpoints.
	Priority string `json:"priority,omitempty"`
}

// BudgetSpec is the wire form of cfq.Budget's resource caps.
type BudgetSpec struct {
	MaxCandidates   int64 `json:"max_candidates,omitempty"`
	MaxFrequentSets int64 `json:"max_frequent_sets,omitempty"`
	MaxLatticeBytes int64 `json:"max_lattice_bytes,omitempty"`
}

// QueryResponse is the success envelope of the three query endpoints.
// Result and Explain are raw cfq.Result / cfq.ExplainReport documents
// (exactly what cmd/cfq emits on stdout); which of them is present depends
// on the endpoint.
type QueryResponse struct {
	Schema     int    `json:"schema"`
	RequestID  string `json:"request_id"`
	TraceID    string `json:"trace_id,omitempty"`
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	Strategy   string `json:"strategy"`
	Cached     bool   `json:"cached,omitempty"`
	// Collapsed marks a response fanned out from a concurrent identical
	// in-flight evaluation (request collapsing) rather than evaluated or
	// cached for this request alone.
	Collapsed bool            `json:"collapsed,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Explain   json.RawMessage `json:"explain,omitempty"`
	Report    *obs.RunReport  `json:"report,omitempty"`
}

// PrepareResponse is the success envelope of POST /v1/prepare: the plan
// handle to pass back as "prepared" on /v1/query, the concrete strategy
// the planner resolved (never "auto"), and — for planner-chosen plans —
// the decision with the rule that fired. Cached is true when
// the handle came from the plan cache (no planning work was done).
type PrepareResponse struct {
	Schema     int             `json:"schema"`
	RequestID  string          `json:"request_id"`
	TraceID    string          `json:"trace_id,omitempty"`
	Dataset    string          `json:"dataset"`
	Generation uint64          `json:"generation"`
	Handle     string          `json:"handle"`
	Strategy   string          `json:"strategy"`
	Cached     bool            `json:"cached,omitempty"`
	Plan       *obs.PlanChoice `json:"plan,omitempty"`
}

// Error codes of the ErrorBody.Code field.
const (
	CodeBadRequest      = "bad_request"
	CodeUnknownDataset  = "unknown_dataset"
	CodeDatasetExists   = "dataset_exists"
	CodeDatasetDropped  = "dataset_dropped"  // mutation raced a concurrent drop (409)
	CodeUnknownPrepared = "unknown_prepared" // prepared handle expired, evicted, or never issued (404)
	CodeStaleGeneration = "stale_generation" // prepared plan's dataset generation has moved (409)
	CodeNotReady        = "not_ready"        // server still recovering datasets at boot
	CodeStorage         = "storage_failed"   // durable log wedged by an earlier write failure
	CodeOverloaded      = "overloaded"       // admission queue full or queue-wait deadline
	CodeDraining        = "draining"         // server shutting down
	CodeBudgetExhausted = "budget_exhausted" // cfq.BudgetError (partial stats attached)
	CodeDeadline        = "deadline"         // hard context deadline
	CodeCanceled        = "canceled"         // client went away / server force-drained
	CodeInternal        = "internal"
)

// ErrorResponse is the error envelope of every endpoint. TraceID is
// present on every error, 429/503/422 included, so a shed or failed
// request is still joinable to the server's logs and slow-query records.
type ErrorResponse struct {
	Schema    int        `json:"schema"`
	RequestID string     `json:"request_id"`
	TraceID   string     `json:"trace_id,omitempty"`
	Error     *ErrorBody `json:"error"`
}

// ErrorBody describes one failure. Budget exhaustion carries the exhausted
// resource, the checkpoint where it tripped, and the partial work counters
// (the cfq.BudgetError contract, lifted onto the wire).
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Resource / Where / Limit / Used mirror cfq.BudgetError.
	Resource string `json:"resource,omitempty"`
	Where    string `json:"where,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Used     int64  `json:"used,omitempty"`
	// PartialStats snapshots the work done before a budget abort.
	PartialStats *cfq.Stats `json:"partial_stats,omitempty"`
	// RetryAfterMS accompanies overloaded responses (also sent as the
	// Retry-After header, in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// DegradationLevel is 1 on sheds issued while the memory watchdog holds
	// the server degraded (0 = normal overload shedding), so clients can tell
	// queue pressure from memory pressure.
	DegradationLevel int `json:"degradation_level,omitempty"`
}

// DatasetSpec is the body of POST /v1/datasets. Exactly one transaction
// source must be set: inline Transactions, a server-local File (text
// format, gated by Config.AllowFiles), or Gen (the built-in Quest
// generator). Numeric/Categorical attach item attributes; Gen can also
// synthesize the standard Price/Type attributes.
type DatasetSpec struct {
	Name string `json:"name"`
	// Items is the item-domain size (required for Transactions/File;
	// defaulted by Gen).
	Items        int                  `json:"items,omitempty"`
	Transactions [][]int              `json:"transactions,omitempty"`
	File         string               `json:"file,omitempty"`
	Gen          *GenSpec             `json:"gen,omitempty"`
	Numeric      map[string][]float64 `json:"numeric,omitempty"`
	Categorical  map[string][]string  `json:"categorical,omitempty"`
}

// GenSpec generates transactions with the Quest generator.
type GenSpec struct {
	Transactions int   `json:"transactions"`
	Items        int   `json:"items"`
	Patterns     int   `json:"patterns,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	// UniformPrices adds a numeric "Price" attribute, U[0,1000).
	UniformPrices bool `json:"uniform_prices,omitempty"`
	// UniformTypes, when > 0, adds a categorical "Type" attribute with
	// that many uniformly assigned types.
	UniformTypes int `json:"uniform_types,omitempty"`
}

// MutateRequest is the body of POST /v1/datasets/{name}/transactions: the
// transactions to append. The mutation recompiles the dataset, bumps its
// generation, and invalidates cached results for it.
type MutateRequest struct {
	Transactions [][]int `json:"transactions"`
}

// DatasetInfo describes one registered dataset (list and info endpoints).
type DatasetInfo struct {
	Name         string   `json:"name"`
	Items        int      `json:"items"`
	Transactions int      `json:"transactions"`
	Generation   uint64   `json:"generation"`
	Numeric      []string `json:"numeric,omitempty"`
	Categorical  []string `json:"categorical,omitempty"`
	// Session is the shared session's lattice-cache state.
	Session cfq.CacheStats `json:"session"`
}

// DatasetsResponse is the envelope of the dataset CRUD endpoints.
type DatasetsResponse struct {
	Schema    int           `json:"schema"`
	RequestID string        `json:"request_id"`
	TraceID   string        `json:"trace_id,omitempty"`
	Datasets  []DatasetInfo `json:"datasets,omitempty"`
	Dataset   *DatasetInfo  `json:"dataset,omitempty"`
	Dropped   string        `json:"dropped,omitempty"`
}

// SlowlogResponse is the envelope of GET /v1/slowlog: the most recent
// journal records marked slow, newest first — each one the line the journal
// wrote. Enabled is false (and Records empty) when the server runs without
// -slow-query-ms.
type SlowlogResponse struct {
	Schema      int                `json:"schema"`
	RequestID   string             `json:"request_id"`
	TraceID     string             `json:"trace_id,omitempty"`
	Enabled     bool               `json:"enabled"`
	ThresholdMS float64            `json:"threshold_ms,omitempty"`
	Records     []*workload.Record `json:"records"`
}

// WorkloadResponse is the envelope of GET /v1/workload: journal state plus
// the live per-class rollups (feature vectors, latency, strategy mix).
// Enabled is false when the server runs without the workload journal.
type WorkloadResponse struct {
	Schema    int                    `json:"schema"`
	RequestID string                 `json:"request_id"`
	TraceID   string                 `json:"trace_id,omitempty"`
	Enabled   bool                   `json:"enabled"`
	Journal   *workload.State        `json:"journal,omitempty"`
	Classes   []workload.ClassRollup `json:"classes,omitempty"`
}

// Limits are the server's default/maximum evaluation bounds. A request
// override of zero means "use the default"; non-zero overrides are clamped
// so no request exceeds a configured maximum (a zero maximum leaves that
// dimension unbounded).
type Limits struct {
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	DefaultBudget  BudgetSpec
	MaxBudget      BudgetSpec
	DefaultPairs   int
	MaxPairs       int
}

// clampDim resolves one budget dimension: request override (if positive)
// else default, capped by max when one is configured. A zero result means
// unbounded, which a configured max also caps.
func clampDim(req, def, max int64) int64 {
	eff := def
	if req > 0 {
		eff = req
	}
	if max > 0 && (eff <= 0 || eff > max) {
		eff = max
	}
	return eff
}

// Resolve derives a request's effective budget and soft deadline from the
// limits. The returned timeout is always positive when either a default or
// a maximum is configured, so a runaway query cannot hold a worker slot
// forever.
func (l Limits) Resolve(req *QueryRequest) (cfq.Budget, time.Duration) {
	var spec BudgetSpec
	if req.Budget != nil {
		spec = *req.Budget
	}
	b := cfq.Budget{
		MaxCandidates:   clampDim(spec.MaxCandidates, l.DefaultBudget.MaxCandidates, l.MaxBudget.MaxCandidates),
		MaxFrequentSets: clampDim(spec.MaxFrequentSets, l.DefaultBudget.MaxFrequentSets, l.MaxBudget.MaxFrequentSets),
		MaxLatticeBytes: clampDim(spec.MaxLatticeBytes, l.DefaultBudget.MaxLatticeBytes, l.MaxBudget.MaxLatticeBytes),
	}
	timeout := time.Duration(clampDim(int64(time.Duration(req.TimeoutMS)*time.Millisecond),
		int64(l.DefaultTimeout), int64(l.MaxTimeout)))
	b.Timeout = timeout
	return b, timeout
}

// ResolvePairs derives the effective MaxPairs cap.
func (l Limits) ResolvePairs(req *QueryRequest) int {
	return int(clampDim(int64(req.MaxPairs), int64(l.DefaultPairs), int64(l.MaxPairs)))
}

// Validate rejects structurally bad query requests before any work.
func (r *QueryRequest) Validate() error {
	if r.Prepared != "" {
		if r.Query != "" || r.Strategy != "" {
			return fmt.Errorf("prepared is exclusive with query and strategy")
		}
	} else if r.Dataset == "" {
		return fmt.Errorf("missing dataset")
	}
	if r.TimeoutMS < 0 || r.MinSupport < 0 || r.MaxPairs < 0 {
		return fmt.Errorf("negative limit")
	}
	if r.MinSupportFrac < 0 || r.MinSupportFrac > 1 {
		return fmt.Errorf("min_support_frac outside [0, 1]")
	}
	if b := r.Budget; b != nil && (b.MaxCandidates < 0 || b.MaxFrequentSets < 0 || b.MaxLatticeBytes < 0) {
		return fmt.Errorf("negative budget")
	}
	if r.Priority != "" {
		if _, err := parsePriority(r.Priority); err != nil {
			return err
		}
	}
	return nil
}

#!/usr/bin/env bash
# check.sh — the repository's CI gate: vet, build, the race-enabled test
# suite, a one-iteration benchmark smoke (catches benchmarks that no longer
# compile or crash), and the logging hygiene gate. Heavy end-to-end
# experiments are skipped via -short so the gate stays fast; run
# `go test ./...` (no -short) for the full suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== logging hygiene =="
# All diagnostics flow through internal/obs (slog spans + metrics); ad-hoc
# log.Printf-style output anywhere else bypasses the stdout/stderr contract.
# (log.Fatal in example mains is an error exit, not diagnostics, and stays.)
if grep -rnE '\blog\.(Printf|Println|Print)\(' \
    --include='*.go' . | grep -v '^./internal/obs/' | grep -v '_test.go'; then
  echo "check.sh: log.Print* outside internal/obs (use obs tracing/slog)" >&2
  exit 1
fi

echo "== pprof hygiene =="
# Profiling attribution flows through internal/obs (tracer pprof labels,
# StartCPUProfile, NewProfilingMux); raw runtime/pprof or net/http/pprof
# imports anywhere else would bypass the phase/constraint-site labeling
# contract that joins profiles to ExplainReports.
if grep -rnE '"(runtime/pprof|net/http/pprof)"' \
    --include='*.go' . | grep -v '^./internal/obs/' | grep -v '_test.go'; then
  echo "check.sh: runtime/pprof outside internal/obs (use obs.StartCPUProfile / tracer labels)" >&2
  exit 1
fi

echo "== exposition hygiene =="
# Metrics exposition is confined to internal/obs the same way pprof is: the
# rest of the stack registers families and never touches the wire format.
# An expvar import or hand-formatted "# TYPE" line anywhere else forks the
# exposition contract (and its lint guarantees).
if grep -rnE '"expvar"' --include='*.go' . | grep -v '^./internal/obs/'; then
  echo "check.sh: expvar import outside internal/obs (register through obs)" >&2
  exit 1
fi
if grep -rn '# TYPE' --include='*.go' . | grep -v '^./internal/obs/' | grep -v '_test.go'; then
  echo "check.sh: Prometheus exposition text formatted outside internal/obs" >&2
  exit 1
fi

echo "== strategy-selection hygiene =="
# Strategy choice belongs to the planner: qualified
# core.Strategy literals outside the engine (internal/core), the decision
# layer's boundary (internal/plan), and the experiment harness
# (internal/exp pins strategies by design) would fork strategy selection
# away from the planner and its wire-name mapping.
if grep -rnE 'core\.Strategy[A-Z]' --include='*.go' . \
    | grep -vE '^\./internal/(plan|core|exp)/' | grep -v '_test.go'; then
  echo "check.sh: core.Strategy selection literal outside internal/{plan,core,exp} (route through the planner / cfq.ParseStrategy)" >&2
  exit 1
fi

echo "== durability hygiene =="
# Inside the WAL/snapshot store every Close and Sync return is load-bearing:
# a swallowed fsync error is a silent durability hole. Bare call statements
# (including deferred ones) are rejected; explicit `_ =` discards with a
# justifying comment and checked `if err :=` forms pass.
if grep -rnE '^[[:space:]]*(defer[[:space:]]+)?[A-Za-z_][A-Za-z0-9_.()]*\.(Close|Sync)\(\)[[:space:]]*$' \
    internal/store --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: unchecked Close/Sync under internal/store (handle or explicitly discard the error)" >&2
  exit 1
fi

echo "== execution-path hygiene =="
# One evaluation pipeline: cfq.Prepared.execute is the only caller of the
# engine in the public package (every Query.Run*/Explain* entry point and
# Session.Run prepare and go through it), package cfq tests no constraint
# itself (generate-and-test and pair formation live in internal/cap and
# internal/core, for engine and session runs alike), and recency
# bookkeeping exists once, in internal/lru (internal/serve/admission.go's
# container/list is a FIFO wait queue, not an LRU).
runs="$(grep -rnE 'core\.Run\(' cfq --include='*.go' | grep -v '_test.go' | grep -cvE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [[ "$runs" -ne 1 ]]; then
  echo "check.sh: $runs core.Run( call sites under cfq/ (want exactly 1: Prepared.execute)" >&2
  exit 1
fi
# One 2-var pipeline: every strategy walks core.Run's phase1 -> reduce ->
# mine -> finalize -> pairs, and a strategy row decides only the schedule of
# the mining stage. A second phase-1 block or reduction loop under
# internal/core is a second copy of the optimizer drifting back.
for once in 'c2.Reduce(' 'tracer.Start("phase1")'; do
  n="$(grep -rnF "$once" internal/core --include='*.go' | grep -v '_test.go' | grep -cvE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
  if [[ "$n" -ne 1 ]]; then
    echo "check.sh: $n occurrences of $once under internal/core (want exactly 1: the one pipeline in core.Run)" >&2
    exit 1
  fi
done
if grep -rnE '\.Satisfies\(' cfq --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: constraint evaluation under cfq/ (filtering and pair formation belong to internal/cap and internal/core)" >&2
  exit 1
fi
# Pair formation is a join on per-set keys (core.formPairs): a two-argument
# Satisfies(s, t) in the engine would bring the |S|x|T| per-pair loop back.
# The 1-var Condition(b).Satisfies(s) calls take one argument and stay.
if grep -rnE '\.Satisfies\([^(),]+,[^()]*\)' internal/core internal/cap --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: per-pair 2-var Satisfies(s, t) under internal/core or internal/cap (evaluate twovar.Sides once per set)" >&2
  exit 1
fi
# And the join reads the valid sets where the levels hold them: its per-set
# keys and projections walk LevelsS/LevelsT into exact-size slices.
# Result.ValidS()/ValidT() concatenate the levels into a fresh list, which
# is for the answer's readers, not for pair formation.
if grep -nE 'Valid[ST]\(\)' internal/core/pairs.go; then
  echo "check.sh: pair formation flattens the levels in internal/core/pairs.go (walk LevelsS/LevelsT in place)" >&2
  exit 1
fi
if grep -rnE 'MoveToFront|lastUse' --include='*.go' . | grep -v '^./internal/lru/' | grep -v '_test.go'; then
  echo "check.sh: LRU recency bookkeeping outside internal/lru (use lru.Cache)" >&2
  exit 1
fi
# No query makes a database pass: the engine reads per-item statistics from
# txdb (computed once per database, i.e. per generation) and never scans.
# The miner makes no scan either: it has no copy of the database, level 1
# comes from the item statistics, level 2 from the generation's pair
# supports and levels >= 3 from the generation's item columns, which one
# txdb pass builds per generation and threshold. And the levelwise hot path
# sorts with package slices — reflection-based sort.Slice on a
# per-transaction or per-candidate path was most of a cold query's
# projection cost.
if grep -rnE '\.(Scan|ScanErr)\(' internal/core --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: database pass under internal/core (read txdb.DB.ItemSupports/ActiveItems; passes belong to internal/mine)" >&2
  exit 1
fi
if grep -nE 'ScanErr\(|\.Scan\(' internal/mine/levelwise.go; then
  echo "check.sh: callback scan in internal/mine/levelwise.go (a run reads no row: levels come from the generation's item supports, pair supports and item columns; a scan in New or a level brings a per-run pass back)" >&2
  exit 1
fi
if grep -n 'sort\.Slice(' internal/mine/levelwise.go; then
  echo "check.sh: sort.Slice in internal/mine/levelwise.go (use package slices)" >&2
  exit 1
fi

echo "== one lattice engine =="
# mine.Levelwise is the only way a frequent-set lattice is produced (CAP
# pushdown, Required classes, preset L1 and resumable Step exist nowhere
# else). The alternates retired at PR 19 (FP-growth, Eclat, partition,
# sampling, closed, maximal; source at 55942b9) and the Miner/GenMode
# selectors that reached them must not drift back in by name. (\b keeps the
# Budget.MaxFrequentSets limit out of the MaxFrequent match.)
if grep -rnE 'FPGrowth|VerticalFrequent|PartitionFrequent|SampleFrequent|ClosedFrequent|MaxFrequent\b|FrequentLevels|ParseMiner|MinerFPGrowth|GenExtension|GenMode' \
    --include='*.go' --exclude-dir=.bench_build .; then
  echo "check.sh: an alternate miner or miner/generator selector is back (one comes back only together with a selection rule the code can observe from its input and a benchmark workload on each side of it)" >&2
  exit 1
fi

echo "== one counter for levels >= 3 =="
# Levels k >= 3 count on the database generation's item bit columns
# (txdb.PairSupports.Column, built in the pass that counts the pair
# supports; internal/mine/columns.go ANDs them): a support is the popcount
# of an AND, for a cold run and an append's newcomers alike. The candidate
# trie and its recursive walk, and the per-run column pass with its trimming
# reader, page pool and scan recording, which the generation's columns
# replaced, must not come back as a second counter.
if grep -rnE 'trieNode|countTrie' internal/mine --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: the candidate trie is back in internal/mine (count levels >= 3 on the item columns)" >&2
  exit 1
fi
if grep -rnE 'buildColumns|countPass|keeper|columnsPool|RecordScan' internal/mine --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: a per-run pass over the rows is back in internal/mine (count levels >= 3 on the generation's item columns)" >&2
  exit 1
fi

echo "== one level-2 counter =="
# Level 2 reads the database generation's pair supports (txdb.PairSupports):
# one pass per generation counts every pair of the items at the lowest
# threshold served, and every run — stepTwo's and an append's Advance alike —
# looks its cells up. The run-local triangle pass it replaced must not come
# back as a second level-2 counter.
if grep -rn 'countTriangle' internal/mine --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: the run-local level-2 triangle pass is back in internal/mine (read level 2 from txdb.DB.PairSupports)" >&2
  exit 1
fi

echo "== prune sites resolved once =="
# A prune site is charged through the *obs.PruneSite handle its miner, filter
# or pass resolved when it was built (PruneSet.Site): a per-rejection lookup
# by name took a mutex and a string-keyed map assign for every pruned
# candidate. And the set a check's condition sees from level 2 on is the
# miner's borrowed scratch set, not a fresh toOrig conversion per candidate.
if grep -rnE '\.Charge\(' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test.go'; then
  echo "check.sh: a charge by site name is back (resolve the site once with PruneSet.Site and Add to the handle)" >&2
  exit 1
fi
if grep -rnE 'Satisfies\([^)]*toOrig' internal/mine --include='*.go' | grep -v '_test.go'; then
  echo "check.sh: a check's condition is handed a fresh toOrig set in internal/mine (lend it the miner's scratch set with borrow)" >&2
  exit 1
fi

echo "== candidate checks are data =="
# An anti-monotone condition reaches the miner as a mine.Check (condition,
# prune site, counter) in the per-level list Config.Checks returns, which the
# miner tests itself — at level 2 on the pair form of a sum, max, min or
# count constraint. The opaque per-candidate closure it replaced, which the
# miner could only call once per cell through the borrowed set, must not
# come back.
if grep -rn 'CandidateFilter' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test.go'; then
  echo "check.sh: a CandidateFilter closure is back (hand the miner mine.Check values through Config.Checks)" >&2
  exit 1
fi

echo "== one per-request record =="
# workload.Record is the one per-request fact and workload.Journal the one
# sink; the slow-query log is the journal's view of its slow records. The
# second record type, its sink and the second capture path retired at PR 24
# must not drift back in by name, and serve builds a record in exactly one
# place (Server.record).
if grep -rnE 'SlowQueryRecord|OpenSlowLog|SlowLogOptions|maybeCaptureSlow' \
    --include='*.go' --exclude-dir=.bench_build .; then
  echo "check.sh: a second per-request record type, sink or capture path is back (extend workload.Record and Server.record instead)" >&2
  exit 1
fi
record_sites="$(grep -n 'workload\.Record{' internal/serve/*.go | grep -v '_test.go' | cut -d: -f1 | sort | uniq -c | tr -s ' ' | tr '\n' ';')"
if [[ "$record_sites" != " 1 internal/serve/workload.go;" ]]; then
  echo "check.sh: workload.Record is constructed at [$record_sites], want once, in Server.record (workload.go)" >&2
  exit 1
fi

echo "== one description of the plan, one cache =="
# A record's class and enforcement sites are read off the ExplainReport of
# the plan that ran, rendered once per evaluation and kept on the stored
# result that cache hits and collapse followers are served from. The
# item-frequency selectivity estimate, which no decision read, and the
# second per-query LRU that repeated the result cache's key must not come
# back.
if grep -rnE 'estimateSelectivity|EstimatedSelectivity' --include='*.go' \
    --exclude-dir=.bench_build --exclude-dir=benchmark . | grep -v '_test.go'; then
  echo "check.sh: the EXPLAIN selectivity estimate is back (EXPLAIN ANALYZE reports what a constraint actually pruned)" >&2
  exit 1
fi
if grep -nE 'lru\.|sync\.Map|maxProfileCache|map\[string\]\*?[A-Za-z]*[Pp]rofile' internal/serve/workload.go; then
  echo "check.sh: a per-query cache is back in internal/serve/workload.go (keep the profile on the cachedResult the evaluation stores)" >&2
  exit 1
fi

echo "== one regret measurement =="
# The planner's regret is measured in process and by work
# (cfq.TestAutoNeverWorstByWork, the benchmark's plan.regret_work_ratio). The
# retired online loop — a shadow sampler re-running live queries, a wall-time
# regret table served over HTTP, and Planner.Fold turning it into per-class
# overrides — must not drift back in by name.
if grep -rnE '\bFold\(|ShadowSample|/v1/workload/regret' --include='*.go' \
    --exclude-dir=.bench_build --exclude-dir=benchmark . | grep -v '_test.go'; then
  echo "check.sh: the online regret loop is back (measure regret in process, by work)" >&2
  exit 1
fi

echo "== one admission gate =="
# Admission is fixed worker slots and one class-ordered queue with a
# queue-wait timeout; every 429's retry hint is that queue wait. The retired
# run-time controller — an AIMD limit on a p95 sample ring, deadline-projected
# early shedding and its gauge — cost goodput on a measured storm and must
# not drift back in by name.
if grep -rnE 'TargetLatency|maybeAdjustLocked|p95Locked|projectedWait|server_admission_limit' \
    --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark . | grep -v '_test.go'; then
  echo "check.sh: the adaptive admission controller is back (fixed slots, one class-ordered queue)" >&2
  exit 1
fi

echo "== one degraded state =="
# The memory watchdog has one degraded state, entered at -mem-soft-limit and
# left with hysteresis on a fixed sampling period, and /statz reads request
# durations from the registry's histogram. The retired three-level brownout
# ladder, its sampling-interval option and the rolling RED windows fed under
# a global mutex on every request must not drift back in by name.
if grep -rnE 'wdEnterFrac|wdMaxLevel|NewRED|telemetry\.RED\b|MemCheckInterval|mem-check-interval' \
    --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark . | grep -v '_test.go'; then
  echo "check.sh: the brownout ladder or the RED windows are back (one degraded state; /statz reads the registry)" >&2
  exit 1
fi

echo "== one planner rule =="
# Strategy auto is the paper's rule over constraint shapes (internal/plan):
# cap without a 2-var constraint, optimized when one registers a dynamic
# bound that prunes T, sequential otherwise. The retired static cost model,
# its Jmax cutoff, FM domain guard and fallback path priced an engine that no
# longer exists and must not drift back in by name.
if grep -rnE 'modelCosts|JmaxCutoff|jmax_cutoff|fmGuardItems|SourceFallback' --include='*.go' \
    --exclude-dir=.bench_build --exclude-dir=benchmark . | grep -v '_test.go'; then
  echo "check.sh: the planner's cost model or Jmax cutoff is back (auto is the constraint-shape rule)" >&2
  exit 1
fi

echo "== one result encoder =="
# The answer is encoded once: cfq.Result.AppendJSON renders a miss into a
# pooled buffer, and every delivery (miss, result-cache hit, collapsed
# follower, prepared handle) writes the envelope around those stored bytes
# (appendQueryResponse). A json.Marshal of the result or a json.Encoder over
# the query envelope in serve would encode the answer a second time and
# re-compact it on every cache hit.
if grep -rnE 'json\.Marshal\(res\)|(Encode|writeJSON)\(.*&QueryResponse' internal/serve --include='*.go' \
    | grep -v '_test.go' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "check.sh: the result is re-encoded in internal/serve (encodeResult once, writeResult writes it as stored)" >&2
  exit 1
fi

echo "== one plan description =="
# A run is described by its span tree (levels, reduce, Jmax iterations) and
# by obs.ExplainReport (EXPLAIN, EXPLAIN ANALYZE, the journal's class and
# enforcement sites). The retired side channels — a progress writer with its
# per-level hook, a second classifier rendering Result.Plan, and a feature
# vector for a cost model that no longer exists — must not drift back in by
# name.
if grep -rnE '\bVerbose\(|OnLevel|QueryFeatures|ProfileQuery|BuildExplainFeatures|describeClass|\.Describe\(\)|traceLevels' \
    --include='*.go' --exclude-dir=.bench_build --exclude-dir=benchmark . | grep -v '_test.go'; then
  echo "check.sh: a second run description is back (spans and the ExplainReport describe a run)" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== static analysis (if installed) =="
# Extra lint runs only when a linter is already on PATH — the gate never
# installs tooling, so hermetic/offline runs skip it silently and stay green.
if command -v staticcheck > /dev/null 2>&1; then
  staticcheck ./...
elif command -v golangci-lint > /dev/null 2>&1; then
  golangci-lint run ./...
else
  echo "  (staticcheck/golangci-lint not on PATH; skipped)"
fi

echo "== go build =="
go build ./...

echo "== benchmark module (vet + build) =="
# benchmark/ is its own module (repro/benchmark, replace repro => ../), so
# the root ./... patterns never compile it: without this step an API drift
# under it surfaces only as a failed benchmark run.
go -C benchmark vet ./...
go -C benchmark build -o /dev/null ./...

echo "== go test -race -short =="
go test -race -short ./...

echo "== generation tables, mining and advance properties (-race -count=3) =="
# No pass of a run's own, the column count of every level-3+ candidate
# equals DB.Support, a lattice carried across an append (mine.Advance)
# equals the re-mined one in sets, supports and order, a cancelled column
# count unwinds, level 2 read from the generation's pair table equals the
# column reference whether the run built the table or found it, first runs
# that build the table concurrently agree with lone runs, and the item
# columns equal naive row membership — under a real Workers split, whose
# per-worker pair triangles and column tiles are written concurrently,
# repeated so a scheduling-dependent miscount cannot hide behind one lucky
# run; a generation extended from its parent's table equals one New builds,
# and children extending one base leave its readers' table untouched; level 2
# walked over the table's frequent partners, with its checks tested on their
# pair forms, equals the walk over every cell, stopped at any checkpoint too;
# and every table's partner lists equal its cells.
go test -race -count=3 -run 'TestNewMakesNoPass|TestColumnCountsMatchSupport|TestAdvanceMatchesRemine|TestColumnCountCancelUnwinds|TestTriangleMatchesColumnsLevel2|TestConcurrentFirstRuns|TestLevel2WalkMatchesCellWalk' ./internal/mine
go test -race -count=3 -run 'TestItemColumns|TestPairSupportsConcurrentBuilds|TestExtendMatchesNew|TestExtendLeavesParent|TestPartnersMatchCells' ./internal/txdb
go test -race -count=10 -run 'TestPruneSiteHandles' ./internal/obs

echo "== advance fuzz smoke (10s) =="
go test -run '^$' -fuzz=FuzzAdvance -fuzztime=10s ./internal/mine

echo "== benchmark smoke (-benchtime=1x) =="
go test -run '^$' -bench . -benchtime=1x ./... > /dev/null

check_tmp="$(mktemp -d)"
cfqd_pid=""
replica_pid=""
cleanup() {
  if [[ -n "$cfqd_pid" ]]; then kill "$cfqd_pid" 2> /dev/null || true; fi
  if [[ -n "$replica_pid" ]]; then kill "$replica_pid" 2> /dev/null || true; fi
  rm -rf "$check_tmp"
}
trap cleanup EXIT

echo "== cfqd smoke (durable serve, SIGKILL recovery, SIGTERM drain) =="
# Boot the real daemon with a durable data dir on an ephemeral port and push
# one small closed-loop load through it (dataset create + queries, expecting
# 200s). cfqload's -wait-ready polls /readyz, so startup and boot recovery
# are awaited, not slept through. Then SIGKILL the daemon — no drain, no
# store flush — restart it over the same directory, and require the
# recovered dataset to keep answering; finally SIGTERM for a clean drain.
go build -o "$check_tmp/cfqd" ./cmd/cfqd
go build -o "$check_tmp/cfqload" ./cmd/cfqload

start_cfqd() {
  rm -f "$check_tmp/addr"
  "$check_tmp/cfqd" -addr 127.0.0.1:0 -addr-file "$check_tmp/addr" \
    -data-dir "$check_tmp/data" -quiet &
  cfqd_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$check_tmp/addr" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$check_tmp/addr" ]]; then
    echo "check.sh: cfqd never wrote its addr-file" >&2
    exit 1
  fi
}

start_cfqd
"$check_tmp/cfqload" -addr "$(cat "$check_tmp/addr")" -wait-ready 10s -create \
  -gen-tx 200 -gen-items 20 -minsup 20 -clients 2 -requests 5 \
  > "$check_tmp/load.out"
if ! grep -q 'status 200' "$check_tmp/load.out"; then
  echo "check.sh: cfqload saw no 200 responses" >&2
  cat "$check_tmp/load.out" >&2
  exit 1
fi

kill -9 "$cfqd_pid"
wait "$cfqd_pid" 2> /dev/null || true
start_cfqd
"$check_tmp/cfqload" -addr "$(cat "$check_tmp/addr")" -wait-ready 10s \
  -minsup 20 -clients 2 -requests 5 \
  > "$check_tmp/recover.out"
if ! grep -q 'status 200' "$check_tmp/recover.out"; then
  echo "check.sh: recovered cfqd not serving the durable dataset after SIGKILL" >&2
  cat "$check_tmp/recover.out" >&2
  exit 1
fi

kill -TERM "$cfqd_pid"
if ! wait "$cfqd_pid"; then
  echo "check.sh: cfqd did not drain cleanly on SIGTERM" >&2
  exit 1
fi
cfqd_pid=""

echo "== telemetry smoke (trace join, /metrics monotonicity, slowlog = journal view) =="
# Boot cfqd with the slow-query log and an ops port, push cfqload traffic
# (which mints traceparent headers and reports its slow outliers), scrape
# /metrics before and after a second load round, and require: the telemetry
# families present, the request counter monotone and growing, a slow-query
# record reachable over /v1/slowlog, and a client-chosen trace id joining
# the server-side record — which is the journal's line for the request.
rm -rf "$check_tmp/data"
rm -f "$check_tmp/addr"
"$check_tmp/cfqd" -addr 127.0.0.1:0 -addr-file "$check_tmp/addr" \
  -ops-addr 127.0.0.1:0 -data-dir "$check_tmp/data" -slow-query-ms 1 \
  2> "$check_tmp/cfqd.log" &
cfqd_pid=$!
ops_addr=""
for _ in $(seq 1 100); do
  ops_addr="$(sed -n 's/.*msg="ops listening" addr=//p' "$check_tmp/cfqd.log" | head -1)"
  [[ -n "$ops_addr" && -s "$check_tmp/addr" ]] && break
  sleep 0.1
done
if [[ -z "$ops_addr" || ! -s "$check_tmp/addr" ]]; then
  echo "check.sh: cfqd never advertised its API/ops addresses" >&2
  exit 1
fi
api_addr="$(cat "$check_tmp/addr")"

"$check_tmp/cfqload" -addr "$api_addr" -wait-ready 10s -create \
  -gen-tx 200 -gen-items 20 -minsup 20 -clients 2 -requests 5 -slow-ms 1 \
  > "$check_tmp/telemetry.out"
if ! grep -q 'slow requests' "$check_tmp/telemetry.out"; then
  echo "check.sh: cfqload -slow-ms printed no outlier report" >&2
  cat "$check_tmp/telemetry.out" >&2
  exit 1
fi

curl -fsS "http://$ops_addr/metrics" > "$check_tmp/scrape1.txt"
for fam in server_requests_total server_request_duration_ms server_queries_total \
    server_active_requests server_slow_queries_total server_result_cache_hits_total \
    server_result_cache_bytes session_cache_bytes session_cache_advances_total \
    session_cache_remines_total store_wal_records_total \
    store_fsyncs_total store_fsync_duration_ms; do
  if ! grep -q "^# TYPE $fam " "$check_tmp/scrape1.txt"; then
    echo "check.sh: family $fam missing from /metrics" >&2
    exit 1
  fi
done

# A budget-exhausted query is captured by the slow log regardless of wall
# time, so the trace join below is deterministic; the trace id is ours.
trace_id="cafe0000000000000000000000000001"
curl -s -o /dev/null -X POST "http://$api_addr/v1/query" \
  -H "Traceparent: 00-$trace_id-cafe000000000001-01" \
  -H 'Content-Type: application/json' \
  -d '{"dataset":"load","query":"{(S,T) | freq(S) & freq(T)}","min_support":20,"budget":{"max_candidates":1},"no_cache":true,"no_session":true}'
if ! curl -fsS "http://$api_addr/v1/slowlog" | grep -q "$trace_id"; then
  echo "check.sh: slow-query log has no record joining trace $trace_id" >&2
  exit 1
fi
# The slow log is a view of the journal: the same record is the line on disk
# under <data-dir>/workload, marked slow, and no second directory exists.
if ! grep -h "$trace_id" "$check_tmp"/data/workload/journal-*.jsonl | grep -q '"slow":true'; then
  echo "check.sh: no journal line marked slow for trace $trace_id under $check_tmp/data/workload" >&2
  exit 1
fi
if [[ -e "$check_tmp/data/slowlog" ]]; then
  echo "check.sh: a separate <data-dir>/slowlog directory exists (the journal is the one sink)" >&2
  exit 1
fi

"$check_tmp/cfqload" -addr "$api_addr" -wait-ready 10s \
  -minsup 20 -clients 2 -requests 5 > /dev/null
curl -fsS "http://$ops_addr/metrics" > "$check_tmp/scrape2.txt"
reqs1="$(awk -F' ' '/^server_requests_total{/ {s+=$2} END {print s+0}' "$check_tmp/scrape1.txt")"
reqs2="$(awk -F' ' '/^server_requests_total{/ {s+=$2} END {print s+0}' "$check_tmp/scrape2.txt")"
if [[ "$reqs2" -le "$reqs1" ]]; then
  echo "check.sh: server_requests_total not monotone across scrapes ($reqs1 -> $reqs2)" >&2
  exit 1
fi

kill -TERM "$cfqd_pid"
wait "$cfqd_pid" || true
cfqd_pid=""

echo "== workload journal smoke (rollups, families, cfqstat -verify) =="
# Boot cfqd with the workload journal, push cfqload traffic with its
# workload report on, then require: the report renders, the workload metric
# families are exposed, and — after a clean drain — cfqstat -verify upholds
# the journal's pruning-attribution contract (per-site counters sum to
# candidates_pruned) on the durable segments.
rm -rf "$check_tmp/data"
rm -f "$check_tmp/addr"
: > "$check_tmp/cfqd.log"
"$check_tmp/cfqd" -addr 127.0.0.1:0 -addr-file "$check_tmp/addr" \
  -ops-addr 127.0.0.1:0 -data-dir "$check_tmp/data" -workload \
  2> "$check_tmp/cfqd.log" &
cfqd_pid=$!
ops_addr=""
for _ in $(seq 1 100); do
  ops_addr="$(sed -n 's/.*msg="ops listening" addr=//p' "$check_tmp/cfqd.log" | head -1)"
  [[ -n "$ops_addr" && -s "$check_tmp/addr" ]] && break
  sleep 0.1
done
if [[ -z "$ops_addr" || ! -s "$check_tmp/addr" ]]; then
  echo "check.sh: workload-smoke cfqd never advertised its API/ops addresses" >&2
  exit 1
fi
api_addr="$(cat "$check_tmp/addr")"

"$check_tmp/cfqload" -addr "$api_addr" -wait-ready 10s -create \
  -gen-tx 200 -gen-items 20 -minsup 20 -clients 2 -requests 5 -workload \
  > "$check_tmp/workload.out"
if ! grep -q 'workload classes:' "$check_tmp/workload.out"; then
  echo "check.sh: cfqload -workload printed no class rollups" >&2
  cat "$check_tmp/workload.out" >&2
  exit 1
fi

curl -fsS "http://$ops_addr/metrics" > "$check_tmp/scrape3.txt"
for fam in workload_journal_records_total server_queue_wait_ms; do
  if ! grep -q "^# TYPE $fam " "$check_tmp/scrape3.txt"; then
    echo "check.sh: family $fam missing from /metrics" >&2
    exit 1
  fi
done

kill -TERM "$cfqd_pid"
if ! wait "$cfqd_pid"; then
  echo "check.sh: workload-smoke cfqd did not drain cleanly on SIGTERM" >&2
  exit 1
fi
cfqd_pid=""

go run ./cmd/cfqstat -dir "$check_tmp/data/workload" -verify > "$check_tmp/cfqstat.out"
if ! grep -q 'verify: ok' "$check_tmp/cfqstat.out"; then
  echo "check.sh: cfqstat -verify failed the journal accounting contract" >&2
  cat "$check_tmp/cfqstat.out" >&2
  exit 1
fi

echo "== planner gate (auto counts what the best strategy counts) =="
# In process and exact: on four Figure 8 points, strategy auto returns every
# fixed strategy's answer and counts exactly as many candidates as the best
# of them.
go test -count=1 -run 'TestAutoNeverWorstByWork' ./cfq

echo "== planner smoke (strategy auto, /v1/prepare) =="
# Boot cfqd with the planner as the default strategy, push
# inline-auto traffic plus a prepared-handle round, then require: a prepare
# handle is issued and executes, the planner families reach /metrics and
# /statz exposes the planner block, and the daemon drains cleanly.
rm -rf "$check_tmp/data"
rm -f "$check_tmp/addr"
: > "$check_tmp/cfqd.log"
"$check_tmp/cfqd" -addr 127.0.0.1:0 -addr-file "$check_tmp/addr" \
  -ops-addr 127.0.0.1:0 -data-dir "$check_tmp/data" \
  -default-strategy auto \
  2> "$check_tmp/cfqd.log" &
cfqd_pid=$!
ops_addr=""
for _ in $(seq 1 100); do
  ops_addr="$(sed -n 's/.*msg="ops listening" addr=//p' "$check_tmp/cfqd.log" | head -1)"
  [[ -n "$ops_addr" && -s "$check_tmp/addr" ]] && break
  sleep 0.1
done
if [[ -z "$ops_addr" || ! -s "$check_tmp/addr" ]]; then
  echo "check.sh: planner-smoke cfqd never advertised its API/ops addresses" >&2
  exit 1
fi
api_addr="$(cat "$check_tmp/addr")"

"$check_tmp/cfqload" -addr "$api_addr" -wait-ready 10s -create \
  -gen-tx 200 -gen-items 20 -minsup 20 -clients 2 -requests 5 \
  > "$check_tmp/plan.out"
if ! grep -q 'status 200' "$check_tmp/plan.out"; then
  echo "check.sh: inline-auto load saw no 200 responses" >&2
  cat "$check_tmp/plan.out" >&2
  exit 1
fi

"$check_tmp/cfqload" -addr "$api_addr" -wait-ready 10s \
  -minsup 20 -clients 2 -requests 3 -strategy auto -prepare \
  > "$check_tmp/prepare.out"
if ! grep -q 'prepared: handle p' "$check_tmp/prepare.out" \
    || ! grep -q 'status 200' "$check_tmp/prepare.out"; then
  echo "check.sh: prepared-handle load did not plan and execute" >&2
  cat "$check_tmp/prepare.out" >&2
  exit 1
fi

curl -fsS "http://$ops_addr/metrics" > "$check_tmp/scrape4.txt"
for fam in plan_decisions_total plan_cache_hits_total plan_cache_misses_total; do
  if ! grep -q "^# TYPE $fam " "$check_tmp/scrape4.txt"; then
    echo "check.sh: family $fam missing from /metrics" >&2
    exit 1
  fi
done
# (grep reads to EOF, not -q: an early exit fails curl's write under pipefail.)
if ! curl -fsS "http://$ops_addr/statz" | grep '"planner"' > /dev/null; then
  echo "check.sh: /statz exposes no planner block" >&2
  exit 1
fi

kill -TERM "$cfqd_pid"
if ! wait "$cfqd_pid"; then
  echo "check.sh: planner-smoke cfqd did not drain cleanly on SIGTERM" >&2
  exit 1
fi
cfqd_pid=""

echo "== overload & degradation smoke (4x-slot storm, priorities, replica equality) =="
# Boot cfqd with 2 workers + 2 queue slots, then storm it with 4x as many
# closed-loop clients split across admission classes. The structured-overload
# contract, end to end: no unstructured 500s, every shed attempt carrying a
# retry hint ("missing retry-after: 0"), per-class rollups in the report, and
# — via -compare-addr — answers identical to an untouched replica daemon
# serving the same generated dataset. The memory watchdog's degraded state is
# covered deterministically by TestOverloadChaosSoak (internal/serve).
rm -rf "$check_tmp/data" "$check_tmp/data2"
rm -f "$check_tmp/addr" "$check_tmp/addr2"
"$check_tmp/cfqd" -addr 127.0.0.1:0 -addr-file "$check_tmp/addr" \
  -data-dir "$check_tmp/data" -workers 2 -queue-depth 2 -queue-wait 250ms \
  -quiet &
cfqd_pid=$!
"$check_tmp/cfqd" -addr 127.0.0.1:0 -addr-file "$check_tmp/addr2" \
  -data-dir "$check_tmp/data2" -quiet &
replica_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$check_tmp/addr" && -s "$check_tmp/addr2" ]] && break
  sleep 0.1
done
if [[ ! -s "$check_tmp/addr" || ! -s "$check_tmp/addr2" ]]; then
  echo "check.sh: overload-smoke daemons never advertised their addresses" >&2
  exit 1
fi
api_addr="$(cat "$check_tmp/addr")"
replica_addr="$(cat "$check_tmp/addr2")"

# Seed the replica with the identical generated dataset (same seed), then
# storm the primary at 4x its admission slots, half interactive half batch,
# forcing evaluations past the result cache.
"$check_tmp/cfqload" -addr "$replica_addr" -wait-ready 10s -create \
  -gen-tx 200 -gen-items 20 -gen-seed 7 -minsup 20 -clients 1 -requests 1 \
  > /dev/null
"$check_tmp/cfqload" -addr "$api_addr" -wait-ready 10s -create \
  -gen-tx 200 -gen-items 20 -gen-seed 7 -minsup 20 \
  -clients 16 -requests 8 -no-cache -priority interactive,batch \
  -compare-addr "$replica_addr" \
  > "$check_tmp/overload.out"

if ! grep -q 'status 200' "$check_tmp/overload.out"; then
  echo "check.sh: overload storm saw no 200 responses" >&2
  cat "$check_tmp/overload.out" >&2
  exit 1
fi
if grep -q 'status 500' "$check_tmp/overload.out"; then
  echo "check.sh: overload storm saw unstructured 500s" >&2
  cat "$check_tmp/overload.out" >&2
  exit 1
fi
if ! grep -q 'missing retry-after: 0' "$check_tmp/overload.out"; then
  echo "check.sh: a shed response arrived without a Retry-After hint" >&2
  cat "$check_tmp/overload.out" >&2
  exit 1
fi
if ! grep -q 'class interactive' "$check_tmp/overload.out" \
    || ! grep -q 'class batch' "$check_tmp/overload.out"; then
  echo "check.sh: overload report missing per-class rollups" >&2
  cat "$check_tmp/overload.out" >&2
  exit 1
fi
if ! grep -q 'compare: answers byte-identical' "$check_tmp/overload.out"; then
  echo "check.sh: post-storm answers diverged from the untouched replica" >&2
  cat "$check_tmp/overload.out" >&2
  exit 1
fi

kill -TERM "$replica_pid"
wait "$replica_pid" 2> /dev/null || true
replica_pid=""
kill -TERM "$cfqd_pid"
if ! wait "$cfqd_pid"; then
  echo "check.sh: overload-smoke cfqd did not drain cleanly on SIGTERM" >&2
  exit 1
fi
cfqd_pid=""

echo "== crash-recovery property (kill -9 storm, -race) =="
# The full acceptance test: a real cfqd SIGKILLed mid-append-storm at
# randomized points must recover exactly an acked-prefix and answer
# byte-identically to a never-crashed replica. Not -short, so the exec'd
# crash rounds actually run.
go test -race -count=1 -run 'TestCrashRecoveryStorm' ./cmd/cfqd

echo "check.sh: all green"

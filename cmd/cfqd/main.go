// Command cfqd serves constrained frequent set queries over HTTP/JSON: a
// dataset registry, three query endpoints (/v1/query, /v1/explain,
// /v1/explain-analyze) carrying the textual CFQ language, a Prepare→Execute
// split (/v1/prepare plans once — strategy "auto" through the
// planner — and issues a handle /v1/query replays), admission control
// with bounded queueing, per-request budgets clamped by server maxima, and
// a normalized-query result cache above each dataset's shared session.
//
//	cfqd -addr localhost:8344 -ops-addr localhost:8345 \
//	     -workers 8 -queue-depth 16 -default-timeout 30s
//
// With -data-dir the registry is durable: every dataset create, append, and
// drop is written to a per-dataset write-ahead log (fsynced per -fsync)
// before it is acknowledged, and a restarted daemon replays the directory at
// boot — /readyz stays 503 until the replay finishes, so orchestrators and
// load balancers never route to a half-recovered daemon.
//
// The ops port serves /metrics, /debug/vars, /debug/pprof, /healthz,
// /readyz and /statz; keep it off the public interface. SIGINT/SIGTERM
// drain gracefully: new work is rejected with 503, in-flight queries get
// -drain-timeout to finish, stragglers are cancelled at their next budget
// checkpoint, and the store is flushed and closed after the drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/cfq"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "cfqd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. ready, when non-nil, receives the bound
// API address once the server is listening.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("cfqd", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "localhost:8344", "API listen address")
		opsAddr        = fs.String("ops-addr", "", "ops listen address (/metrics, /debug/pprof, /healthz); empty = disabled")
		addrFile       = fs.String("addr-file", "", "write the bound API address to this file (ephemeral-port scripting)")
		workers        = fs.Int("workers", 0, "concurrent evaluations (0 = GOMAXPROCS)")
		queueDepth     = fs.Int("queue-depth", 0, "admission queue depth beyond the workers (0 = 2x workers)")
		queueWait      = fs.Duration("queue-wait", time.Second, "max time a queued request waits for a worker before 429")
		memSoftLimit   = fs.Int64("mem-soft-limit", 0, "heap soft limit in bytes; at the limit the memory watchdog shrinks the caches and sheds batch queries until heap use falls below 85% of it (0 disables)")
		breakerCooloff = fs.Duration("breaker-cooloff", 5*time.Second, "wait before a wedged dataset log's first repair probe (negative disables the breaker)")
		defaultTimeout = fs.Duration("default-timeout", 30*time.Second, "soft evaluation deadline when the request sets none")
		maxTimeout     = fs.Duration("max-timeout", 0, "hard cap on request-supplied deadlines (0 = uncapped)")
		defaultBudget  = fs.Int64("default-budget", 0, "default max candidates counted per query (0 = unlimited)")
		maxBudget      = fs.Int64("max-budget", 0, "hard cap on request-supplied candidate budgets (0 = uncapped)")
		defaultPairs   = fs.Int("default-maxpairs", 20, "default materialized answer pairs per query")
		maxPairs       = fs.Int("max-maxpairs", 0, "hard cap on request-supplied maxpairs (0 = uncapped)")
		minSupFrac     = fs.Float64("minsupfrac", 0.01, "default minimum support fraction when a request sets no threshold")
		resultEntries  = fs.Int("result-cache-entries", 256, "result cache entry bound (negative disables the cache)")
		resultBytes    = fs.Int64("result-cache-bytes", 64<<20, "result cache byte bound")
		defaultStrat   = fs.String("default-strategy", "", "strategy for requests that set none (optimized, nojmax, cap, apriori, fm, sequential, auto); empty = optimized, auto = planner rule: cap without a 2-var constraint, optimized when a dynamic bound prunes T, else sequential")
		planEntries    = fs.Int("plan-cache-entries", 256, "prepared-plan cache entry bound (negative disables /v1/prepare)")
		planBytes      = fs.Int64("plan-cache-bytes", 8<<20, "prepared-plan cache byte bound")
		sessionBytes   = fs.Int64("session-cache-bytes", 256<<20, "per-dataset session lattice cache byte bound (negative = unbounded)")
		allowFiles     = fs.Bool("allow-files", false, "allow datasets loaded from server-local files")
		dataDir        = fs.String("data-dir", "", "durable dataset directory (WAL + snapshots); empty = ephemeral registry")
		fsyncPolicy    = fs.String("fsync", "always", "WAL fsync policy: always, interval, never")
		fsyncInterval  = fs.Duration("fsync-interval", 100*time.Millisecond, "max unsynced window under -fsync interval")
		compactRecords = fs.Int("compact-records", 1024, "snapshot+truncate a dataset log after this many WAL records (negative disables)")
		compactBytes   = fs.Int64("compact-bytes", 64<<20, "snapshot+truncate a dataset log after this many WAL bytes (negative disables)")
		slowQueryMS    = fs.Int64("slow-query-ms", 0, "mark queries slower than this (or budget/error outcomes) slow in the journal, with query text and analyzed plan, for GET /v1/slowlog; 0 disables")
		workloadOn     = fs.Bool("workload", false, "journal every completed query (class, strategy, pruning, outcome) for GET /v1/workload")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain window for in-flight requests")
		logLevel       = fs.String("log-level", "info", "log level: debug, info, warn, error")
		quiet          = fs.Bool("quiet", false, "disable request logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *slog.Logger
	if !*quiet {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			return fmt.Errorf("bad -log-level %q", *logLevel)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}

	var storeOpts *store.Options
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		storeOpts = &store.Options{
			Dir:            *dataDir,
			Policy:         policy,
			SyncEvery:      *fsyncInterval,
			CompactRecords: *compactRecords,
			CompactBytes:   *compactBytes,
			BreakerCooloff: *breakerCooloff,
		}
	}

	if *defaultStrat != "" {
		if _, err := cfq.ParseStrategy(*defaultStrat); err != nil {
			return fmt.Errorf("bad -default-strategy: %w", err)
		}
	}
	// The journal — every query with -workload, only the slow and failed
	// ones with just -slow-query-ms — persists beside the WALs when the
	// daemon has a data directory: one ring, whichever of the two asks for
	// it. Without one, the slow view and the rollups live in memory for the
	// process lifetime.
	var workloadDir, slowLogDir string
	if *dataDir != "" {
		journalDir := filepath.Join(*dataDir, "workload")
		if *workloadOn {
			workloadDir = journalDir
		}
		if *slowQueryMS > 0 {
			slowLogDir = journalDir
		}
	}

	srv := serve.NewServer(serve.Config{
		Store:        storeOpts,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		QueueWait:    *queueWait,
		MemSoftLimit: *memSoftLimit,
		Limits: serve.Limits{
			DefaultTimeout: *defaultTimeout,
			MaxTimeout:     *maxTimeout,
			DefaultBudget:  serve.BudgetSpec{MaxCandidates: *defaultBudget},
			MaxBudget:      serve.BudgetSpec{MaxCandidates: *maxBudget},
			DefaultPairs:   *defaultPairs,
			MaxPairs:       *maxPairs,
		},
		DefaultMinSupportFrac: *minSupFrac,
		DefaultStrategy:       *defaultStrat,
		ResultCacheEntries:    *resultEntries,
		ResultCacheBytes:      *resultBytes,
		PlanCacheEntries:      *planEntries,
		PlanCacheBytes:        *planBytes,
		SessionCacheBytes:     *sessionBytes,
		AllowFiles:            *allowFiles,
		SlowQuery:             time.Duration(*slowQueryMS) * time.Millisecond,
		SlowLogDir:            slowLogDir,
		Workload:              *workloadOn,
		WorkloadDir:           workloadDir,
		Logger:                logger,
	})

	// Catch shutdown signals before anyone can learn the address: a SIGTERM
	// that arrives between "listening" and the drain select must drain, not
	// take the default terminate disposition.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	if ready != nil {
		ready <- bound
	}
	if logger != nil {
		logger.Info("cfqd listening", slog.String("addr", bound))
	}

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		opsSrv = &http.Server{Handler: srv.OpsHandler()}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && err != http.ErrServerClosed && logger != nil {
				logger.Error("ops server", slog.Any("err", err))
			}
		}()
		if logger != nil {
			logger.Info("ops listening", slog.String("addr", opsLn.Addr().String()))
		}
	}

	// Serve until a shutdown signal, then drain.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Boot recovery runs with the listener already accepting: probes see
	// /readyz 503 "starting" and /v1 traffic gets structured not_ready
	// errors until the replay flips the server ready.
	recoverStart := time.Now()
	recovered, err := srv.Recover()
	if err != nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
		<-errc
		return fmt.Errorf("boot recovery: %w", err)
	}
	if logger != nil && storeOpts != nil {
		logger.Info("recovery complete", slog.Int("datasets", len(recovered)),
			slog.Duration("elapsed", time.Since(recoverStart)))
	}

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		if logger != nil {
			logger.Info("draining", slog.String("signal", fmt.Sprint(sig)),
				slog.Duration("timeout", *drainTimeout))
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if opsSrv != nil {
			_ = opsSrv.Close()
		}
		<-errc // Serve has returned once Shutdown completes
		if logger != nil {
			logger.Info("cfqd stopped")
		}
		return err
	}
}

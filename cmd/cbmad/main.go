// Command cbmad is the campaign service daemon: campaigns become requests,
// not processes. It accepts scenario/sweep submissions over a JSON HTTP API,
// runs them as soon as an executor is idle, coalesces compatible
// submissions that queue behind a busy executor into batched executions
// sharing one worker budget, and serves results from a content-addressed cache — the
// simulator's determinism contract (bit-identical Metrics for an identical
// scenario+seed) is what makes cached results exact, not approximate.
//
//	cbmad -addr :8337 -cache-dir /var/cache/cbma
//
// API (see DESIGN.md "Service architecture" and the README quickstart):
//
//	POST   /v1/campaigns               submit points (JSON scenarios)
//	GET    /v1/campaigns               list known jobs
//	GET    /v1/campaigns/{id}          status + per-point results
//	DELETE /v1/campaigns/{id}          cancel a job
//	GET    /v1/campaigns/{id}/events   stream the job's JSONL events
//	GET    /v1/campaigns/{id}/manifest run manifest (after completion)
//	GET    /v1/stats                   registry snapshot (cache/batch counters)
//	GET    /v1/healthz                 liveness
//	GET    /debug/pprof/, /debug/vars  profiling and expvar
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/batch"
	"cbma/internal/serve/core"
	"cbma/internal/serve/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cbmad:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("cbmad", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8337", "listen address for the HTTP API")
		cacheDir     = fs.String("cache-dir", "", "directory for the on-disk result cache (empty: memory only)")
		cacheEntries = fs.Int("cache-entries", core.DefaultMemoryEntries, "in-memory cache capacity (entries)")
		diskEntries  = fs.Int("cache-disk-entries", 0, "disk cache capacity in entries (0: unbounded; LRU eviction)")
		diskBytes    = fs.Int64("cache-disk-bytes", 0, "disk cache capacity in bytes (0: unbounded; LRU eviction)")
		maxBatch     = fs.Int("max-batch", 64, "cap on the queued points one batch takes")
		workers      = fs.Int("workers", 0, "engine worker budget per executing batch (0: GOMAXPROCS)")
		parallel     = fs.Int("parallel", 1, "concurrently executing batches")
		drainWait    = fs.Duration("drain-wait", 30*time.Second, "shutdown budget for in-flight batches")
		shards       = fs.Int("shards", 0, "execute each batch sharded across this many worker processes (0: in-process)")
		journalDir   = fs.String("journal-dir", "", "root directory for per-campaign shard journals (with -shards; enables crash-tolerant resume)")
		shardWorker  = fs.Bool("shard-worker", false, "internal: serve one shard assignment on stdin/stdout and exit (spawned by the coordinator)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *shardWorker {
		return shard.ServeWorker(context.Background(), os.Stdin, os.Stdout, nil)
	}

	o := obs.New(obs.Config{Clock: obs.SystemClock()})

	var store core.Store = core.NewMemoryStore(*cacheEntries)
	if *cacheDir != "" {
		var (
			disk *core.DiskStore
			err  error
		)
		if *diskEntries > 0 || *diskBytes > 0 {
			disk, err = core.NewBoundedDiskStore(*cacheDir,
				core.DiskLimits{MaxEntries: *diskEntries, MaxBytes: *diskBytes},
				obs.SystemClock(), o)
		} else {
			disk, err = core.NewDiskStore(*cacheDir, o)
		}
		if err != nil {
			return fmt.Errorf("opening cache dir: %w", err)
		}
		store = core.NewTiered(store, disk)
	}
	var runner core.Runner = core.CampaignRunner{}
	if *shards > 0 {
		// Sharded execution: each batch runs as a journaled campaign across
		// worker processes (this binary, re-exec'd with -shard-worker), so a
		// daemon restart mid-campaign resumes from committed points instead
		// of recomputing them.
		sub, err := shard.NewSubprocess(shard.SubprocessConfig{})
		if err != nil {
			return err
		}
		runner = shard.New(shard.Config{
			Shards:      *shards,
			Transport:   sub,
			JournalRoot: *journalDir,
			Obs:         o,
		})
	}
	svc := &core.Service{Runner: runner, Store: store, Obs: o}
	b := batch.New(batch.Config{
		Service:  svc,
		MaxBatch: *maxBatch,
		Workers:  *workers,
		Parallel: *parallel,
		Obs:      o,
	})

	baseCtx, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	srv := newServer(baseCtx, b, o)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("cbmad %s listening on %s (cache-dir=%q mem-entries=%d max-batch=%d workers=%d parallel=%d shards=%d journal-dir=%q)",
		obs.Version(), ln.Addr(), *cacheDir, *cacheEntries, *maxBatch, *workers, *parallel, *shards, *journalDir)

	errc := make(chan error, 1)
	//cbma:fireforget serve loop exits via httpSrv.Shutdown below; errc is buffered so the send never strands it
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("cbmad: %s, draining (up to %s)", sig, *drainWait)
	case err := <-errc:
		return err
	}

	// Orderly shutdown: stop intake, drain in-flight batches, then close
	// the listener. Jobs past the drain budget finish with Interrupted
	// partials (the same semantics as SIGINT on cbmasim).
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := b.Close(shutCtx)
	cancelJobs()
	srv.drain() // all jobs are resolved once the batcher closed; collect their finishJob goroutines
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		return drainErr
	}
	return nil
}

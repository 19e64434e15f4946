// Command serve runs the GraphSig HTTP service over a chemical screen:
//
//	serve -in data/AIDS.db -addr :8080
//	serve -dataset MOLT-4 -n 1000 -addr :8080 -warm
//	serve -store-dir store/ -shards 4 -addr :8080
//
// With -store-dir the corpus is served out of a persistent segment
// store (built with `graphsig store build`): segments load lazily
// through a bounded LRU, so a database larger than RAM is servable,
// and mining scatter-gathers across -shards shards with results
// byte-identical to an unsharded in-memory mine.
//
// Endpoints: GET /healthz, GET /stats, POST /mine, POST /query,
// POST /significance, POST /jobs/mine, GET /jobs, GET /jobs/{id},
// DELETE /jobs/{id} (see internal/server).
//
// Mining runs through an asynchronous job subsystem: a bounded queue
// (-queue-depth) feeds a worker pool (-workers), finished jobs stay
// retrievable for -job-ttl, and identical requests coalesce through a
// result cache of -cache-size entries. The server carries connection
// timeouts, a request concurrency limit, request body caps, and
// per-job mine deadlines; SIGINT/SIGTERM triggers a graceful shutdown
// that drains in-flight requests and running mining jobs up to -drain
// before canceling them into partial results.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/jobs"
	"graphsig/internal/journal"
	"graphsig/internal/obs"
	"graphsig/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	in := flag.String("in", "", "graph database file (.db transaction format or .smi)")
	dataset := flag.String("dataset", "", "generate this catalog dataset instead of loading")
	n := flag.Int("n", 1000, "molecules to generate with -dataset")
	storeDir := flag.String("store-dir", "", "serve out of this persistent segment store (see `graphsig store build`) instead of loading into memory")
	shards := flag.Int("shards", 1, "scatter-gather mining shards for -store-dir")
	cachedSegments := flag.Int("cached-segments", 0, "raw-segment LRU size for -store-dir (0 = default)")
	maxConc := flag.Int("max-concurrent", server.DefaultMaxConcurrent, "max in-flight requests before 503 (0 = unbounded)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body cap in bytes (0 = unbounded)")
	mineCap := flag.Duration("mine-cap", server.DefaultMineTimeoutCap, "hard cap on a single /mine run")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	workers := flag.Int("workers", jobs.DefaultWorkers, "mining worker pool size")
	queueDepth := flag.Int("queue-depth", jobs.DefaultQueueDepth, "max queued mining jobs before 503 backpressure")
	jobTTL := flag.Duration("job-ttl", jobs.DefaultTTL, "how long finished jobs stay retrievable")
	cacheSize := flag.Int("cache-size", jobs.DefaultCacheSize, "dedup result-cache entries (-1 disables)")
	journalDir := flag.String("journal-dir", "", "directory for the durable job journal (empty = jobs are not durable)")
	maxRetries := flag.Int("max-retries", 0, "automatic retries for transiently failed jobs (0 = disabled)")
	stallTimeout := flag.Duration("stall-timeout", 0, "cancel running jobs whose checkpoints stop advancing for this long (0 = no watchdog)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "emit a resumable snapshot every N mined groups (0 = default)")
	warm := flag.Bool("warm", false, "eagerly build the query index and RWR vectors before serving")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: it reveals stacks and timings)")
	stats := flag.Bool("stats", false, "print the per-stage metrics table to stderr after shutdown")
	flag.Parse()

	var db []*graph.Graph
	switch {
	case *storeDir != "":
		// The store is opened below; the corpus never loads into memory.
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		if strings.HasSuffix(*in, ".smi") {
			db, _, err = chem.ReadSMILESFile(f)
		} else {
			db, err = graph.ReadDB(f, chem.Alphabet())
		}
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *dataset != "":
		found := false
		for _, spec := range chem.Catalog() {
			if spec.Name == *dataset {
				db = chem.GenerateN(spec, *n).Graphs
				found = true
			}
		}
		if !found {
			log.Fatalf("unknown dataset %q", *dataset)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	var svc *server.Server
	if *storeDir != "" {
		var err error
		svc, err = server.NewFromStore(*storeDir, server.StoreOptions{
			Shards:         *shards,
			CachedSegments: *cachedSegments,
		})
		if err != nil {
			log.Fatal(err)
		}
		gen, graphs, width, _ := svc.Store()
		log.Printf("opened store %s: generation %d, %d graphs, %d shard(s)", *storeDir, gen, graphs, width)
	} else {
		svc = server.New(db)
	}
	svc.MaxConcurrent = *maxConc
	svc.MaxBodyBytes = *maxBody
	svc.MineTimeoutCap = *mineCap
	if *mineCap <= 0 {
		svc.MineTimeoutCap = server.DefaultMineTimeoutCap
	}
	svc.JobWorkers = *workers
	svc.JobQueueDepth = *queueDepth
	svc.JobTTL = *jobTTL
	svc.JobCacheSize = *cacheSize
	svc.JobMaxRetries = *maxRetries
	svc.JobStallTimeout = *stallTimeout
	svc.JobCheckpointEvery = *checkpointEvery
	svc.EnablePprof = *pprofOn

	var jnl *journal.Journal
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			log.Fatal(err)
		}
		var recs []journal.JobRecord
		var err error
		jnl, recs, err = journal.Open(*journalDir, journal.Options{
			Retention: *jobTTL,
			Metrics:   svc.Metrics,
		})
		if err != nil {
			log.Fatal(err)
		}
		svc.Journal = jnl
		svc.JournalReplay = recs
		if len(recs) > 0 {
			log.Printf("journal: replaying %d job(s) from %s", len(recs), *journalDir)
		}
	}

	if *warm {
		t0 := time.Now()
		if err := svc.Warm(); err != nil {
			log.Fatal(err)
		}
		log.Printf("warmed query index and RWR vectors in %s", time.Since(t0).Round(time.Millisecond))
	}

	// Listen before announcing: the bound address (meaningful with
	// ":0") goes to the log, and tooling that spawns this binary can
	// scrape it to find the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{
		Handler: svc.Handler(),
		// Header/read timeouts bound slow-loris clients; the write
		// timeout must outlast the longest admissible mine, so it tracks
		// the mine cap with headroom for serialization.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      svc.MineTimeoutCap + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		if _, graphs, _, ok := svc.Store(); ok {
			log.Printf("serving %d graphs (store-backed) on %s", graphs, ln.Addr())
		} else {
			log.Printf("serving %d graphs on %s", len(db), ln.Addr())
		}
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		// Listener failed before any shutdown signal.
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("shutdown signal received, draining for up to %s", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("drain deadline exceeded, closing connections: %v", err)
			srv.Close()
		}
		// Drain the mining job pool within the same deadline: queued
		// jobs are canceled, running jobs get the remaining budget to
		// finish before being cut into partial results.
		if err := svc.Close(shCtx); err != nil {
			log.Printf("job drain deadline exceeded, running mines canceled: %v", err)
		}
		if err := jnl.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Printf("shutdown complete")
		if *stats {
			obs.WriteStageTable(os.Stderr, svc.Metrics.Snapshot())
		}
	}
}

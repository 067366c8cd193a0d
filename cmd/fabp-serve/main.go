// Command fabp-serve is the FabP alignment query service: it preloads a
// nucleotide database (the software analogue of the paper's card-resident
// DRAM image), then serves protein align queries over HTTP JSON with
// per-request deadlines, a deadline-aware weighted admission queue, a
// content-addressed scan-result cache (repeat queries answer without
// scanning or queueing), and a graceful drain on shutdown.
//
// Usage:
//
//	fabp-serve -ref db.fasta [-addr :8080] [-max-inflight 64] [-timeout 10s]
//	           [-max-queue 0] [-cache-bytes 67108864]
//	fabp-serve -db db.fdb                  # a database saved by fabp-db build
//
// Endpoints:
//
//	POST /align        {"query":"MKWVTF...", "threshold_frac":0.85,
//	                    "kernel":"auto", "max_hits":100, "timeout_ms":500}
//	POST /align/batch  {"queries":["MKWVTF...", ...], "threshold_frac":0.85,
//	                    "max_hits":100, "timeout_ms":500} — one fused scan
//	                    for the whole batch; a K-query batch takes K
//	                    in-flight slots (admission weighs scan work)
//	POST /align/stream?query=MKWVTF...&query=...&threshold_frac=0.85
//	                    nucleotide letters in the body; NDJSON hit lines
//	                    and a trailer back; K queries take K slots
//	POST /search       {"query":"MKWVTF...", "two_hit":true, "frames":6,
//	                    "min_score":35, "max_evalue":1e-3, "max_hits":100,
//	                    "timeout_ms":500} — TBLASTN-style protein search
//	                    of the database's translated frames (HSPs with
//	                    E-values), same admission/cache/deadline spine
//	GET  /healthz      liveness + resident-database shape
//	GET  /metrics      telemetry snapshot (expvar-style JSON)
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes, running
// scans drain (bounded by -drain-timeout), then the process exits 0.
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

	"fabp"
	"fabp/internal/faultinject"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabp-serve: ")

	refPath := flag.String("ref", "", "nucleotide FASTA file to preload")
	dbPath := flag.String("db", "", "packed database file (fabp-db build) to preload")
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	maxInflight := flag.Int("max-inflight", 64, "concurrently executing align requests before queueing or 429")
	maxQueue := flag.Int("max-queue", 0, "align requests that may wait for a slot before 429 (0 = shed immediately)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "scan-result cache capacity in bytes (0 disables caching)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request scan deadline")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "ceiling on client-requested timeouts")
	maxHits := flag.Int("max-hits", 1000, "ceiling on hits returned per request")
	maxBatch := flag.Int("max-batch", 64, "ceiling on queries per /align/batch request")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running scans")
	retries := flag.Int("retries", 0, "per-shard retries of transient scan failures (0 = single attempt)")
	retryBase := flag.Duration("retry-base", 0, "base retry backoff delay (0 = 1ms default)")
	hedgeAfter := flag.Duration("hedge-after", 0, "duplicate a shard still running after this long (0 = no hedging)")
	hedgeBudget := flag.Int("hedge-budget", 0, "hedged duplicates allowed per scan")
	flag.Parse()

	// Fault injection arms only from the environment (FABP_FAULTS,
	// FABP_FAULT_SEED) — a chaos-drill knob, never a request parameter.
	if on, err := faultinject.EnableFromEnv(); err != nil {
		log.Fatalf("FABP_FAULTS: %v", err)
	} else if on {
		logf("fault injection armed from FABP_FAULTS")
	}

	db, err := loadDatabase(*refPath, *dbPath)
	if err != nil {
		log.Fatal(err)
	}
	logf("database resident: %d records, %d nt", db.NumRecords(), db.Len())

	// Warm up before accepting traffic so the first query never pays
	// packing latency. A v2 file's persisted planes make this free; a
	// FASTA build, a v1 file, or a rejected plane section packs here, once.
	t0 := time.Now()
	planeSource := "packed"
	if db.PlanesResident() {
		planeSource = "persisted"
	}
	db.WarmPlanes()
	logf("planes resident (%s) in %s", planeSource, time.Since(t0).Round(time.Microsecond))

	rp := fabp.RetryPolicy{
		MaxRetries:  *retries,
		Base:        *retryBase,
		HedgeAfter:  *hedgeAfter,
		HedgeBudget: *hedgeBudget,
	}
	s := newServer(serverConfig{
		db:             db,
		maxInflight:    *maxInflight,
		maxQueue:       *maxQueue,
		cacheBytes:     *cacheBytes,
		defaultTimeout: *timeout,
		maxTimeout:     *maxTimeout,
		maxHits:        *maxHits,
		maxBatch:       *maxBatch,
		planeSource:    planeSource,
		retryPolicy:    rp,
	})
	if err := serve(s, *addr, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

// loadDatabase builds the resident database from exactly one of a FASTA
// file or a packed database file.
func loadDatabase(refPath, dbPath string) (*fabp.Database, error) {
	path, load, what := refPath, fabp.BuildDatabase, "building database from"
	switch {
	case refPath != "" && dbPath != "":
		return nil, fmt.Errorf("set -ref or -db, not both")
	case dbPath != "":
		path, load, what = dbPath, fabp.LoadDatabase, "loading database"
	case refPath == "":
		return nil, fmt.Errorf("a database is required: -ref db.fasta or -db db.fdb")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := load(f)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", what, path, err)
	}
	return db, nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, and idleTimeout how long a keep-alive connection may
// wait for its next request, so slow or idle clients cannot pin
// connections.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serve runs the HTTP server until SIGINT/SIGTERM, then drains: the
// listener closes immediately, in-flight scans get drainTimeout to finish
// (their request contexts are canceled past that), and the call returns
// once the last handler exits.
func serve(s *server, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// baseCtx parents every request context; canceling it past the drain
	// window aborts scans that outstayed the grace period at their next
	// shard checkpoint.
	baseCtx, abortScans := context.WithCancel(context.Background())
	defer abortScans()
	srv := &http.Server{
		Handler:           s.handler(),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan error, 1)
	go func() {
		<-sigCtx.Done()
		logf("shutdown: draining running scans (up to %s)", drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			// Drain window expired: cancel the stragglers' contexts and
			// give their handlers a moment to observe it.
			abortScans()
			ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel2()
			err = srv.Shutdown(ctx2)
		}
		shutdownDone <- err
	}()

	logf("listening on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-shutdownDone; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logf("drained; bye")
	return nil
}

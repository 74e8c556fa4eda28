// Command cppe-serve runs the crash-safe sweep service: an HTTP/JSON API that
// schedules simulations on a bounded worker pool and caches completed results
// content-addressed by their job fingerprint.
//
//	cppe-serve -addr :8080 -state-dir /var/lib/cppe -workers 2
//
//	curl -s localhost:8080/healthz
//	curl -s -XPOST localhost:8080/v1/jobs \
//	     -d '{"benchmark":"SRD","setup":"cppe","oversubscription":50}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/result     # == cppe-sim -json output
//	curl -s -XPOST localhost:8080/v1/sweeps \
//	     -d '{"benchmarks":["SRD","NW"],"setups":["base","cppe"],"oversubscriptions":[75,50]}'
//	curl -s localhost:8080/v1/sweeps/<id>          # per-point states + counts
//	curl -s localhost:8080/v1/sweeps/<id>/result   # the (partial) grid
//	curl -sN localhost:8080/v1/sweeps/<id>/events  # SSE progress stream
//	curl -s localhost:8080/statsz
//
// Durability: every accepted job is journaled under the state directory
// before its POST is answered, so a kill -9 loses no accepted job — on
// restart the journal replays and interrupted runs rerun from cycle 0. Runs
// write no checkpoints: rerunning the few interrupted runs costs less than
// checkpointing every run would. SIGTERM/SIGINT drain gracefully: new
// submissions are shed with 503, running jobs stop at their next epoch
// boundary (every 2^21 simulated cycles), and the process exits 0 with a
// journal the next start continues from.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		stateDir  = flag.String("state-dir", "cppe-serve-state", "durable state directory (journal, results, sweep manifests)")
		workers   = flag.Int("workers", 2, "simulation worker pool size")
		queueLen  = flag.Int("queue", 64, "admission queue depth; a full queue sheds submissions with 429")
		attempts  = flag.Int("max-attempts", 3, "run attempts per job before terminal failure")
		retryBase = flag.Duration("retry-base", 500*time.Millisecond, "initial retry backoff (doubles per attempt)")
		retryCap  = flag.Duration("retry-cap", 8*time.Second, "retry backoff ceiling")
		deadline  = flag.Duration("deadline", 0, "per-attempt wall-clock budget, enforced at epoch boundaries (0 = none)")
		drainWait = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for parking running jobs (0 = wait forever)")
		sweepWork = flag.Int("sweep-workers", 0, "per-sweep fan-out window: points of one sweep in flight at a time (default: -workers)")
		storeMax  = flag.Int64("store-max-bytes", 0, "result store size budget; LRU tail evicted past it (0 = unbounded)")
		storeAge  = flag.Duration("store-max-age", 0, "evict results older than this and expire manifests of long-done sweeps (0 = never)")
		scale     = flag.Float64("scale", 0, "workload footprint scale for all jobs (default 0.25)")
		warps     = flag.Int("warps", 0, "concurrent access streams (default 64)")
		seed      = flag.Int64("seed", 0, "workload/PRNG seed")
		timeout   = flag.Duration("timeout", 0, "per-run no-progress watchdog (0 = 30s default, negative = off)")
	)
	flag.Parse()
	log.SetPrefix("cppe-serve: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	// One shared session: its options are part of every job's identity, so a
	// state dir must be paired with stable -scale/-warps/-seed flags (changing
	// them changes the fingerprints, and old cache entries simply never match).
	session := cppe.NewSession(cppe.Options{
		Scale: *scale, Warps: *warps, Seed: *seed, Timeout: *timeout,
	})
	srv, err := serve.New(serve.Config{
		StateDir:      *stateDir,
		Workers:       *workers,
		QueueDepth:    *queueLen,
		MaxAttempts:   *attempts,
		RetryBase:     *retryBase,
		RetryCap:      *retryCap,
		Deadline:      *deadline,
		SweepWorkers:  *sweepWork,
		StoreMaxBytes: *storeMax,
		StoreMaxAge:   *storeAge,
		Runner:        serve.SessionRunner(session),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppe-serve:", err)
		os.Exit(1)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (state dir %s, %d workers)", *addr, *stateDir, *workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("caught %v: draining", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cppe-serve:", err)
		os.Exit(1)
	}

	// Graceful shutdown: shed new work, park running jobs at their next
	// epoch boundary (their journal records replay as queued and rerun from
	// cycle 0), then stop the HTTP listener.
	// Exit 0 means the journal is complete and a restart continues the work.
	srv.Drain()
	if err := srv.Shutdown(*drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "cppe-serve:", err)
		os.Exit(1)
	}
	httpSrv.Close()
	log.Printf("drained; journal is replayable from %s", *stateDir)
}

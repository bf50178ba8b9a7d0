// Command hayatd serves the Hayat lifetime-simulation engine over
// HTTP/JSON: submit single-chip or population jobs, poll them, cancel
// them, and read metrics. Identical requests coalesce onto one
// computation and finished results are served from a content-addressed
// cache (optionally persisted with -data).
//
// Usage:
//
//	hayatd [-addr :8080] [-workers N] [-queue N]
//	       [-data DIR] [-drain 30s] [-journal FILE] [-checkpoints DIR]
//	       [-checkpoint-every N] [-failpoints SPECS]
//	       [-default-deadline D] [-pprof-addr ADDR] [-audit FILE]
//	       [-self URL -peers URL,URL,...] [-probe-interval D] [-steal-after D]
//	       [-replicas N] [-anti-entropy-interval D]
//
// -queue bounds the jobs waiting for a worker. A submit that needs new
// work while the queue is full gets 429 with a Retry-After projected from
// the queue's drain rate; queued jobs are dequeued round-robin across the
// clients that submitted them. -queue is the one overload setting: a
// shorter queue cuts the latency of admitted jobs.
//
// With -peers (comma-separated base URLs of the OTHER nodes) and -self
// (this node's own base URL as peers reach it), the daemon joins a hayatd
// cluster: jobs shard across nodes by their content-addressed cache key,
// population chips fan out through peers' batch APIs, and every node
// probes every peer's /readyz each -probe-interval, evicting dead or
// draining peers from the hash ring (their keys re-route to the next
// owner) and restoring them when they recover. A chip whose remote result
// has not arrived after -steal-after is stolen back and simulated
// locally. With all peers down the node serves the full single-node API.
//
// In cluster mode every terminal result is also replicated to its key's
// -replicas ring successors (Merkle-verified on read; a dead owner's
// results keep serving from replicas), and a background anti-entropy
// sweep every -anti-entropy-interval read-repairs missing or divergent
// copies and pays down replication debt accrued while peers were down.
//
// With -journal, accepted jobs are write-ahead journalled and re-enqueued
// (under their original IDs) after a crash; with -checkpoints, recovered
// jobs resume from their last persisted checkpoint instead of restarting.
//
// POST /v1/batch admits up to 1024 submissions in one pass and journals
// the accepted ones with one fsync. Every terminal result is recorded in
// a per-segment Merkle tree and GET /v1/jobs/{id}/proof serves its
// inclusion proof; with -audit the tree is persisted and rebuilt on
// restart, without it proofs only cover results produced since startup.
// -failpoints (or the HAYAT_FAILPOINTS environment variable) arms fault
// injection for crash drills, e.g.
// "service.cache-read=prob(0.1),sim.thermal-solve=fail(3)".
//
// Each lifetime runs on one goroutine. -workers bounds how many jobs run
// at once, not how many lifetimes: a population job runs up to
// GOMAXPROCS of its chips at once inside its one worker slot.
// -pprof-addr serves net/http/pprof on a separate listener (keep it
// private — bind to localhost).
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight
// jobs for the -drain grace period, then cancels the rest at their next
// epoch boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers handlers on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty: disabled; keep it private)")
		queue      = flag.Int("queue", 64, "bounded job-queue depth")
		data       = flag.String("data", "", "directory for persisted results (empty: memory only)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period")
		journal    = flag.String("journal", "", "write-ahead job journal file (empty: no crash recovery)")
		ckptDir    = flag.String("checkpoints", "", "directory for job checkpoints (empty: recovered jobs restart)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint cadence in epochs (0: every workload-remix boundary)")
		failpoints = flag.String("failpoints", "", "arm failpoints, e.g. service.cache-read=prob(0.1) (also HAYAT_FAILPOINTS)")
		defaultDL  = flag.Duration("default-deadline", 0, "deadline applied to jobs that submit without one (0: unbounded)")
		audit      = flag.String("audit", "", "persisted Merkle audit log for result provenance (empty: memory only)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs for cluster mode (empty: single node)")
		self       = flag.String("self", "", "this node's own base URL as peers reach it (required with -peers)")
		probeEvery = flag.Duration("probe-interval", time.Second, "peer /readyz health-probe cadence in cluster mode")
		stealAfter = flag.Duration("steal-after", time.Minute, "steal a population chip back to local simulation when its remote result is this late")
		replicas   = flag.Int("replicas", service.DefaultReplicas, "ring successors holding a copy of every result in cluster mode (negative: owner-only)")
		antiEvery  = flag.Duration("anti-entropy-interval", 0, "store anti-entropy sweep cadence (0: 30s default)")
		// Write timeout must cover wait=true long-polls, which block for a
		// whole simulation.
		waitBudget = flag.Duration("wait-budget", 15*time.Minute, "HTTP write timeout (bounds wait=true long-polls)")
	)
	flag.Parse()
	log.SetPrefix("hayatd: ")
	log.SetFlags(log.LstdFlags)

	if err := faultinject.ArmFromEnv(); err != nil {
		log.Fatalf("HAYAT_FAILPOINTS: %v", err)
	}
	if *failpoints != "" {
		if err := faultinject.ArmSpecs(*failpoints); err != nil {
			log.Fatalf("-failpoints: %v", err)
		}
	}
	for _, name := range faultinject.Names() {
		log.Printf("failpoint armed: %s", name)
	}

	srv, err := service.New(service.Options{
		Workers:             *workers,
		QueueDepth:          *queue,
		DataDir:             *data,
		JournalPath:         *journal,
		CheckpointDir:       *ckptDir,
		CheckpointEvery:     *ckptEvery,
		DefaultDeadline:     *defaultDL,
		AuditPath:           *audit,
		Replicas:            *replicas,
		AntiEntropyInterval: *antiEvery,
		Cluster:             clusterOptions(*peers, *self, *probeEvery, *stealAfter),
		Logf:                log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-client defences: a stalled peer cannot pin a connection (and
		// its goroutine) forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      *waitBudget,
		IdleTimeout:       2 * time.Minute,
	}
	if *pprofAddr != "" {
		// The pprof import registered its handlers on DefaultServeMux;
		// serve them on a dedicated listener so profiling endpoints never
		// share a port with the public API. Failure is fatal at startup
		// (a typo'd address should not silently disable profiling).
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("pprof: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (%d workers, queue %d)", *addr, *workers, *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Printf("signal received, draining for up to %v", *drain)
	case err := <-errCh:
		log.Fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("drain: %v", err)
	}
	m := srv.Metrics().Snapshot()
	log.Printf("done: %d done, %d failed, %d cancelled, cache %d hits / %d misses",
		m.Jobs.Done, m.Jobs.Failed, m.Jobs.Cancelled, m.Cache.Hits, m.Cache.Misses)
}

// clusterOptions parses -peers/-self into ClusterOptions (zero value when
// -peers is unset: single-node mode).
func clusterOptions(peers, self string, probeEvery, stealAfter time.Duration) service.ClusterOptions {
	if peers == "" {
		return service.ClusterOptions{}
	}
	return service.ClusterOptions{
		Self:          self,
		Peers:         strings.Split(peers, ","),
		ProbeInterval: probeEvery,
		StealAfter:    stealAfter,
	}
}

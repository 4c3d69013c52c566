// Command fastscd serves frequency-aware compilation over HTTP: it keeps
// one process-wide compile cache warm across requests and streams batch
// results as NDJSON. See docs/api.md for the API and docs/architecture.md
// for how the daemon sits on top of the compilation stack (including the
// "Failure model & recovery" section for what survives a crash).
//
// Start a daemon, compile against it, then stop it gracefully:
//
//	fastscd -addr :8077 -cache-file /var/lib/fastsc/cache.snap.gz \
//	        -store-file /var/lib/fastsc/batches.store &
//	curl -N -d @batch.json http://localhost:8077/v1/compile
//	kill -TERM $!   # drains in-flight batches, then saves the snapshot
//
// On SIGTERM/SIGINT the daemon stops admitting work (/readyz turns 503 so
// load balancers rotate it out; /healthz stays 200 — the process is alive),
// lets every admitted batch finish (bounded by -drain-timeout), and — when
// a -cache-file is set — saves a cache snapshot that warms the next start.
// A second signal aborts the drain immediately. The next start loads the
// snapshot before it listens, so once /readyz answers the cache is warm.
//
// With a -store-file, async batch records are durable: a batch 202-acked
// before a kill -9 is still pollable after restart, finished batches keep
// their results, and batches that were in flight when the process died
// poll as "interrupted". With -snapshot-interval the cache snapshot is
// also written periodically, so even an unclean death leaves a warm start
// behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fastsc/internal/faultpoint"
	"fastsc/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8077", "listen address")
		workers       = flag.Int("workers", 0, "per-request worker budget (0 = GOMAXPROCS)")
		maxConcurrent = flag.Int("max-concurrent", 0, "batches compiling at once (0 = default 2)")
		maxQueue      = flag.Int("max-queue", 0, "batches waiting for a slot before 429 (0 = default 16, -1 = none)")
		maxJobs       = flag.Int("max-jobs", 0, "jobs per batch (0 = default 256)")
		cacheFile     = flag.String("cache-file", "", "cache snapshot path: loaded at startup (cold start if missing/stale) and saved after a clean drain; a .gz suffix writes it compressed")
		cacheCap      = flag.Int("cache-capacity", 0, "compile cache capacity in cost units (0 = default)")
		storeFile     = flag.String("store-file", "", "durable batch-store path: async batch records survive restarts (in-flight ones poll as \"interrupted\")")
		snapInterval  = flag.Duration("snapshot-interval", 0, "also save the cache snapshot periodically (0 = only on clean shutdown); makes warm starts survive kill -9")
		drainTimeout  = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight batches")
		faultSpec     = flag.String("faultpoints", "", "arm fault-injection points, e.g. \"job.panic*1,solve.slow=50ms\" (chaos testing; also read from "+faultpoint.EnvVar+")")
	)
	flag.Parse()

	if err := faultpoint.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "fastscd:", err)
		os.Exit(2)
	}
	if err := faultpoint.Arm(*faultSpec); err != nil {
		fmt.Fprintln(os.Stderr, "fastscd:", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:       *workers,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		MaxJobs:       *maxJobs,
		CacheCapacity: *cacheCap,
	})

	// The batch store opens synchronously before the listener: a 202 ack
	// must never be issued by a process that would forget the batch, so
	// the daemon either has its durable store or knows it degraded.
	if *storeFile != "" {
		restored, interrupted, err := srv.Store().Open(*storeFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastscd: batch store: %v (starting empty)\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "fastscd: batch store: %d records restored (%d interrupted), epoch %d\n",
				restored, interrupted, srv.Store().Epoch())
		}
	}

	// The cache snapshot, too, loads before the listener opens. A
	// default-capacity snapshot loads in milliseconds, and a signal during
	// the load ends the process before any save (signals are caught only
	// once it serves), so a half-loaded cache never overwrites the file.
	if *cacheFile != "" {
		start := time.Now()
		res, err := srv.LoadSnapshot(*cacheFile)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "fastscd: cache snapshot: %v (starting cold)\n", err)
		case res.Degraded != "":
			fmt.Fprintf(os.Stderr, "fastscd: cache snapshot %s degraded (%s): starting cold\n", *cacheFile, res.Degraded)
		default:
			fmt.Fprintf(os.Stderr, "fastscd: warm start: %d cache entries restored from %s in %v\n",
				res.Restored, *cacheFile, time.Since(start).Round(time.Microsecond))
		}
	}

	// The periodic saver makes the warm start crash-proof. Shutdown stops
	// it and waits for it to exit, so the final save is the last snapshot
	// written.
	saverStop := make(chan struct{})
	var saver sync.WaitGroup
	if *cacheFile != "" && *snapInterval > 0 {
		saver.Add(1)
		go func() {
			defer saver.Done()
			tick := time.NewTicker(*snapInterval)
			defer tick.Stop()
			for {
				select {
				case <-saverStop:
					return
				case <-tick.C:
					if err := srv.Cache().Save(*cacheFile); err != nil {
						fmt.Fprintln(os.Stderr, "fastscd: periodic snapshot:", err)
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "fastscd: listening on %s\n", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "fastscd:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "fastscd: %v: draining (in-flight batches run to completion; repeat to abort)\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "fastscd: second signal: aborting drain")
		cancel()
	}()

	drainErr := srv.Shutdown(ctx) // refuses new submissions at once; readyz turns 503
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "fastscd:", drainErr)
	}
	close(saverStop)
	saver.Wait()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "fastscd: http shutdown:", err)
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed

	if *storeFile != "" {
		if err := srv.Store().SaveNow(); err != nil {
			fmt.Fprintln(os.Stderr, "fastscd: batch store:", err)
		}
	}
	if *cacheFile != "" && drainErr == nil {
		if err := srv.Cache().Save(*cacheFile); err != nil {
			fmt.Fprintln(os.Stderr, "fastscd: cache snapshot:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fastscd: cache snapshot saved to %s\n", *cacheFile)
	}
	if drainErr != nil {
		os.Exit(1)
	}
}

// Command routed is the routing system's one command. With no subcommand
// it serves the routing service over HTTP/JSON: POST /v1/route runs one
// search through the unified Route API, POST /v1/plan fans a batch of
// nets through the parallel planner, and GET /healthz reports admission
// state. The wire format is documented in the api package. The
// subcommands run the same kernels from the command line, or administer a
// running server:
//
//	routed route -kind fastpath|rbp|gals|latch ...  # one net (see runRoute)
//	routed plan [-config plan.json] ...             # a batch (see runPlan)
//	routed tables -table all -scale paper           # Tables I-III (see runTables)
//	routed cache stats|snapshot|load -addr 127.0.0.1:8080
//	routed cache diff old-dir new-dir
//
// Serving:
//
//	routed -addr :8080
//	routed -addr :8080 -max-inflight 8 -max-queue 16 -request-timeout 10s
//	routed -addr :8080 -metrics-addr 127.0.0.1:9090 -trace routed.jsonl -v
//	routed -addr :8080 -cache-mb 128 -cache-dir /var/lib/routed/cache
//	routed -addr :8080 -backends http://w1:8080,http://w2:8080,http://w3:8080
//
// With -backends, the process runs as a sharding coordinator: /v1/plan
// requests, buffered and streamed, are distributed across the listed
// workers by consistent hashing on each net's canonical problem hash,
// with per-backend circuit breakers, failover re-routing, and in-process
// degraded routing when every backend is down (see internal/coordinator).
// /v1/route keeps routing locally.
//
// Admission control sheds load with 429 + Retry-After once the in-flight
// and queue limits are both full. On SIGINT/SIGTERM the server drains:
// new requests get 503, in-flight searches finish (up to -drain-timeout,
// after which they are aborted cooperatively), then the process exits.
//
// Results are cached by canonical problem hash (64 MiB budget by default;
// -cache-mb 0 turns it off). With -cache-dir set, snapshot segments in
// that directory are replayed at boot, and `routed cache snapshot` asks a
// running server to persist its current cache for the next start.
//
// Try it:
//
//	curl -s http://localhost:8080/v1/route -d '{
//	  "grid": {"w": 64, "h": 64, "pitch_mm": 0.25},
//	  "kind": "rbp", "period_ps": 500,
//	  "src": {"x": 1, "y": 1}, "dst": {"x": 60, "y": 60}
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clockroute/internal/cliutil"
	"clockroute/internal/coordinator"
	"clockroute/internal/server"
	"clockroute/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 {
		args := os.Args[2:]
		switch os.Args[1] {
		case "route":
			os.Exit(runRoute(args, os.Stdout, os.Stderr))
		case "plan":
			os.Exit(runPlan(args, os.Stdout, os.Stderr))
		case "tables":
			os.Exit(runTables(args, os.Stdout, os.Stderr))
		case "cache":
			os.Exit(runCacheCmd(args))
		}
	}
	os.Exit(serve())
}

// invalid prints a flag-check failure and fs's usage: exit status 2.
func invalid(fs *flag.FlagSet, err error) int {
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	return 2
}

// finish closes the trace of a run that otherwise succeeded; a lost trace
// write fails the run.
func finish(obs *cliutil.Observability) int {
	if err := obs.Close(); err != nil {
		return obs.Fail("trace", err)
	}
	return 0
}

// serve runs the routing service until SIGINT/SIGTERM and its drain.
func serve() int {
	var (
		addr         = flag.String("addr", ":8080", "service listen address")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent routing requests (0 = 2x GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "requests queued for a slot before shedding (0 = max-inflight)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "default per-request search deadline")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "ceiling on any requested deadline")
		workers      = flag.Int("workers", 0, "max concurrent searches per /v1/plan batch (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain budget before in-flight searches are aborted")
		cacheMB      = flag.Int64("cache-mb", 64, "result-cache byte budget in MiB (0 = caching off)")
		backends     = flag.String("backends", "", "comma-separated backend URLs; when set, /v1/plan shards across them (coordinator mode)")
		beInflight   = flag.Int("backend-inflight", 0, "nets queued per backend before dispatch backpressures (0 = 32)")
		circFails    = flag.Int("circuit-failures", 0, "consecutive exchange failures that open a backend circuit (0 = 3)")
		circCooldown = flag.Duration("circuit-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = 5s)")
		probeEvery   = flag.Duration("probe-interval", 10*time.Second, "background /healthz probing of non-closed backends (0 = off)")
		cacheDir     = flag.String("cache-dir", "", "directory for cache snapshot segments; loaded at boot, written by 'routed cache snapshot' (empty = in-memory only)")
		slowMS       = flag.Int("slow-ms", 500, "slow-request SLO in milliseconds: slower requests are kept for /debug/slow and persisted to -trace (0 = off)")
		obs          cliutil.Observability
	)
	obs.Register(flag.CommandLine)
	flag.Parse()

	var v cliutil.Validator
	v.NonNegativeInt("max-inflight", *maxInflight)
	v.NonNegativeInt("max-queue", *maxQueue)
	v.NonNegativeInt("workers", *workers)
	v.NonNegativeDuration("request-timeout", *reqTimeout)
	v.NonNegativeDuration("max-timeout", *maxTimeout)
	v.NonNegativeDuration("drain-timeout", *drainTimeout)
	v.NonNegativeInt("cache-mb", int(*cacheMB))
	v.NonNegativeInt("slow-ms", *slowMS)
	v.NonNegativeInt("backend-inflight", *beInflight)
	v.NonNegativeInt("circuit-failures", *circFails)
	v.NonNegativeDuration("circuit-cooldown", *circCooldown)
	v.NonNegativeDuration("probe-interval", *probeEvery)
	obs.Check(&v)
	if err := v.Err(); err != nil {
		return invalid(flag.CommandLine, err)
	}
	if err := obs.Start(os.Stderr); err != nil {
		return obs.Fail("observability", err)
	}
	defer obs.Close()
	log := obs.Log

	// Coordinator mode: with -backends set, /v1/plan (buffered and
	// streamed) shards across the listed workers; /v1/route stays local.
	var coord *coordinator.Coordinator
	if *backends != "" {
		var urls []string
		for _, u := range strings.Split(*backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		var err error
		coord, err = coordinator.New(coordinator.Config{
			Backends:         urls,
			InFlight:         *beInflight,
			FailureThreshold: *circFails,
			Cooldown:         *circCooldown,
			ProbeInterval:    *probeEvery,
			Metrics:          telemetry.Default(),
		})
		if err != nil {
			return obs.Fail("coordinator", err)
		}
		coord.Start()
		defer coord.Close()
		log.Info("coordinator mode", "backends", urls)
	}

	svc := server.New(server.Config{
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		MaxWorkers:     *workers,
		CacheMaxBytes:  *cacheMB << 20,
		CacheDir:       *cacheDir,
		Metrics:        telemetry.Default(),
		Sink:           telemetry.Multi(obs.Sinks()...),
		SlowThreshold:  time.Duration(*slowMS) * time.Millisecond,
		Coordinator:    coord,
	})

	// The metrics server comes up after the service is built so it can
	// mount the service's flight recorder and cache series; it goes down
	// inside the drain path below, with the service, instead of being
	// abandoned to process exit.
	promExtra := []func(io.Writer){svc.CachePrometheus()}
	if coord != nil {
		promExtra = append(promExtra, coord.WritePrometheus)
	}
	msrv, err := obs.Serve(telemetry.ServerOptions{
		Recorder: svc.FlightRecorder(),
		Extra:    promExtra,
	})
	if err != nil {
		return obs.Fail("observability", err)
	}
	if *cacheMB > 0 && *cacheDir != "" {
		// Warm start: replay whatever snapshot segments the directory holds.
		// Corruption is survivable — the readable prefix still warms the
		// cache — so it logs rather than refusing to boot.
		n, err := svc.LoadCache()
		if err != nil {
			log.Warn("cache load", "entries", n, "err", err)
		} else if n > 0 {
			log.Info("cache warmed from snapshots", "dir", *cacheDir, "entries", n)
		}
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// net/http logs accept errors, TLS handshake failures, and handler
		// panics it recovers itself through this logger; without it they go
		// straight to stderr, bypassing the structured log stream.
		ErrorLog: slog.NewLogLogger(log.Handler(), slog.LevelError),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("routing service up", "addr", *addr)

	select {
	case err := <-errc:
		return obs.Fail("serve", err)
	case <-ctx.Done():
	}

	log.Info("draining", "budget", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Warn("drain deadline passed, in-flight searches aborted", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if msrv != nil {
		// The metrics listener drains with the service — an abandoned
		// listener would hold the port (and its goroutine) past the
		// service's death.
		if err := msrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Warn("metrics shutdown", "err", err)
		}
	}
	if status := finish(&obs); status != 0 {
		return status
	}
	log.Info("bye")
	return 0
}

// Command routed serves the routing system over HTTP/JSON: POST /v1/route
// runs one search through the unified Route API, POST /v1/plan fans a
// batch of nets through the parallel planner, and GET /healthz reports
// admission state. The wire format is documented in the api package.
//
// Usage:
//
//	routed -addr :8080
//	routed -addr :8080 -max-inflight 8 -max-queue 16 -request-timeout 10s
//	routed -addr :8080 -metrics-addr 127.0.0.1:9090 -trace routed.jsonl -v
//	routed -addr :8080 -cache-mb 128 -cache-dir /var/lib/routed/cache
//	routed -addr :8080 -backends http://w1:8080,http://w2:8080,http://w3:8080
//	routed cache stats|snapshot|load -addr 127.0.0.1:8080
//	routed cache diff old-dir new-dir
//
// With -backends, the process runs as a sharding coordinator: streamed
// /v1/plan requests are distributed across the listed workers by
// consistent hashing on each net's canonical problem hash, with
// per-backend circuit breakers, failover re-routing, and in-process
// degraded routing when every backend is down (see internal/coordinator).
// Buffered /v1/route and /v1/plan keep routing locally.
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
	"clockroute/internal/faultpoint"
	"clockroute/internal/server"
	"clockroute/internal/telemetry"
)

func main() {
	// Admin subcommands run against an already-listening server:
	// routed cache <stats|snapshot|load|diff> [-addr host:port]
	if len(os.Args) > 1 && os.Args[1] == "cache" {
		os.Exit(runCacheCmd(os.Args[2:]))
	}

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
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /progress, /debug/slow, and /debug/pprof on this address (empty = off)")
		slowMS       = flag.Int("slow-ms", 500, "slow-request SLO in milliseconds: slower requests are kept for /debug/slow and persisted to -trace (0 = off)")
		traceFile    = flag.String("trace", "", "append JSONL span events to this file (empty = off)")
		faultpoints  = flag.String("faultpoints", "", "arm fault-injection points, e.g. 'core.wave_push=panic@3,sink.write=delay:5ms' (also via FAULTPOINTS env)")
		verbose      = flag.Bool("v", false, "debug-level logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	fail := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}

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
	if err := v.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *faultpoints != "" {
		if err := faultpoint.Set(*faultpoints); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		log.Warn("fault injection armed", "points", faultpoint.List())
	}

	// Observability wiring mirrors cmd/planner: the process-wide metrics
	// registry always aggregates; -trace tees every span to JSONL; with
	// -metrics-addr the live endpoints come up beside the service.
	var extra []telemetry.Sink
	var jsonl *telemetry.JSONL
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail("trace file", err)
		}
		defer f.Close()
		jsonl = telemetry.NewJSONL(f)
		extra = append(extra, jsonl)
		log.Info("tracing spans", "file", *traceFile)
	}
	var progress *telemetry.Progress
	if *metricsAddr != "" {
		progress = telemetry.NewProgress()
		extra = append(extra, progress)
	}

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
			fail("coordinator", err)
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
		Sink:           telemetry.Multi(extra...),
		SlowThreshold:  time.Duration(*slowMS) * time.Millisecond,
		Coordinator:    coord,
	})

	// The metrics server comes up after the service is built so it can
	// mount the service's flight recorder and cache series; it goes down
	// inside the drain path below, with the service, instead of being
	// abandoned to process exit.
	var msrv *telemetry.Server
	if *metricsAddr != "" {
		promExtra := []func(io.Writer){svc.CachePrometheus()}
		if coord != nil {
			promExtra = append(promExtra, coord.WritePrometheus)
		}
		var err error
		msrv, err = telemetry.NewServer(*metricsAddr, telemetry.ServerOptions{
			Progress: progress,
			Metrics:  telemetry.Default(),
			Recorder: svc.FlightRecorder(),
			Extra:    promExtra,
		})
		if err != nil {
			fail("metrics server", err)
		}
		msrv.Start()
		log.Info("observability endpoints up",
			"metrics", "http://"+msrv.Addr()+"/metrics",
			"progress", "http://"+msrv.Addr()+"/progress",
			"slow", "http://"+msrv.Addr()+"/debug/slow",
			"pprof", "http://"+msrv.Addr()+"/debug/pprof/")
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
		fail("serve", err)
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
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fail("trace", err)
		}
	}
	log.Info("bye")
}

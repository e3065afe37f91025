package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockroute/client"
	"clockroute/internal/coordinator"
	"clockroute/internal/server"
	"clockroute/internal/telemetry"
)

// The system under test runs in this process on loopback HTTP, configured
// with cmd/routed's defaults: a 64 MiB result cache and a 500 ms slow
// threshold. Each server gets its own telemetry registry so counters are
// read per layer and per backend.
const (
	cacheBytes    = 64 << 20
	slowThreshold = 500 * time.Millisecond
	probeInterval = 10 * time.Second
)

type cluster struct {
	front     *server.Server
	frontM    *telemetry.Metrics
	backends  []*server.Server
	backendM  []*telemetry.Metrics
	coord     *coordinator.Coordinator
	cli       *client.Client
	rt        *countingRT
	transport *http.Transport

	https   []*http.Server
	serveWG sync.WaitGroup
}

// newCluster boots nBackends backend servers (cache on, one search worker
// each) behind a coordinating front when nBackends > 0, or a lone front
// otherwise, and a client holding at most nClients connections. tr, when
// non-nil, wraps every Handler() in a span recorder.
func newCluster(nBackends, nClients int, seed int64, tr *tracer) (*cluster, error) {
	c := &cluster{frontM: telemetry.NewMetrics()}
	var urls []string
	for i := 0; i < nBackends; i++ {
		m := telemetry.NewMetrics()
		s := server.New(server.Config{
			MaxWorkers:    1,
			CacheMaxBytes: cacheBytes,
			SlowThreshold: slowThreshold,
			Metrics:       m,
		})
		c.backends = append(c.backends, s)
		c.backendM = append(c.backendM, m)
		url, err := c.serve(tr.wrap(spanBackend, i, s.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	if nBackends > 0 {
		coord, err := coordinator.New(coordinator.Config{
			Backends:      urls,
			ProbeInterval: probeInterval,
			Metrics:       c.frontM,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		coord.Start()
		c.coord = coord
	}
	c.front = server.New(server.Config{
		CacheMaxBytes: cacheBytes,
		SlowThreshold: slowThreshold,
		Metrics:       c.frontM,
		Coordinator:   c.coord,
	})
	url, err := c.serve(tr.wrap(spanFront, 0, c.front.Handler()))
	if err != nil {
		c.close()
		return nil, err
	}
	c.transport = &http.Transport{
		MaxConnsPerHost:     nClients,
		MaxIdleConnsPerHost: nClients,
		DisableCompression:  true,
	}
	c.rt = &countingRT{base: c.transport}
	c.cli = client.New(url,
		client.WithHTTPClient(&http.Client{Transport: c.rt, Timeout: 2 * time.Minute}),
		client.WithJitterSeed(seed))
	return c, nil
}

func (c *cluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("perfbench: listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.https = append(c.https, hs)
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server, the coordinator and the client connections,
// and returns once every serving goroutine has exited.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	for _, hs := range c.https {
		_ = hs.Shutdown(ctx) // in-flight requests finish; a timeout leaves them to Close below
		_ = hs.Close()
	}
	if c.front != nil {
		_ = c.front.Shutdown(ctx)
	}
	if c.coord != nil {
		c.coord.Close()
	}
	for _, s := range c.backends {
		_ = s.Shutdown(ctx)
	}
	// The coordinator's backend clients use the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	c.serveWG.Wait()
}

// serving lists the servers whose result caches answer the workload: the
// backends behind a coordinator, else the front.
func (c *cluster) serving() ([]*server.Server, []*telemetry.Metrics) {
	if len(c.backends) > 0 {
		return c.backends, c.backendM
	}
	return []*server.Server{c.front}, []*telemetry.Metrics{c.frontM}
}

// countingRT counts HTTP round trips, so client retries show as attempts.
type countingRT struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(r)
}

// opContext tags a request with the X-Request-Id that links server-side
// spans to the benchmark's op.
func opContext(ctx context.Context, kind string, i int) context.Context {
	return client.WithRequestID(ctx, kind+"-"+strconv.Itoa(i))
}

func opID(rid string) (int, bool) {
	s, ok := strings.CutPrefix(rid, "op-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// Span names. A span's parent is fixed by its name: client.op roots the
// measured op, http.front sits under it and http.backend under that;
// replay.op roots the traced replay of the same op's inputs.
const (
	spanClient      = "client.op"
	spanFront       = "http.front"
	spanBackend     = "http.backend"
	spanReplay      = "replay.op"
	spanDecode      = "api.decode"
	spanCanonical   = "api.canonical"
	spanCacheGet    = "resultcache.get"
	spanCachePut    = "resultcache.put"
	spanBuild       = "planwire.build"
	spanCore        = "core.route"
	spanPlanner     = "planner.run"
	spanCoordinator = "coordinator.plan"
)

var spanParent = map[string]string{
	spanFront:       spanClient,
	spanBackend:     spanFront,
	spanDecode:      spanReplay,
	spanCanonical:   spanReplay,
	spanCacheGet:    spanReplay,
	spanCachePut:    spanReplay,
	spanBuild:       spanReplay,
	spanCore:        spanReplay,
	spanPlanner:     spanReplay,
	spanCoordinator: spanReplay,
}

type span struct {
	name       string
	op, idx    int // idx: backend index for http.backend
	start, end time.Time
	in, out    int64 // request and response body bytes for HTTP spans
}

func (s span) ms() float64 { return float64(s.end.Sub(s.start)) / float64(time.Millisecond) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing and wraps nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// time runs fn as a span of op.
func (t *tracer) time(name string, op int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{name: name, op: op, start: start, end: end})
	return end.Sub(start)
}

// wrap records a span around h for every request carrying an op's
// X-Request-Id, with the body bytes read and written.
func (t *tracer) wrap(name string, idx int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := opID(r.Header.Get("X-Request-Id"))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.add(span{name: name, op: op, idx: idx, start: start, end: time.Now(), in: body.n, out: cw.n})
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// countingWriter counts response bytes; Unwrap lets the server's
// ResponseController reach Flush and full duplex underneath.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

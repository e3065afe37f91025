package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerOptions configures the debug server's routes. All fields are
// optional; /metrics always serves the Default registry.
type ServerOptions struct {
	// Progress mounts /progress with the tracker's in-flight snapshot.
	Progress *Progress
	// Recorder mounts /debug/slow with the retained slow-request trees.
	Recorder *FlightRecorder
	// Extra appends per-subsystem Prometheus series after the registry
	// (the routing service passes the result cache's shard series).
	Extra []func(io.Writer)
}

// Server is the opt-in debug endpoint behind routed's -metrics-addr flag.
// It serves:
//
//	/metrics        Prometheus text exposition (format 0.0.4)
//	/progress       the Progress tracker's in-flight snapshot
//	/debug/slow     the flight recorder's slow-request span trees
//	/debug/pprof/*  the standard pprof profiles
//
// Handlers are mounted on a private mux, not http.DefaultServeMux, so
// embedding applications keep control of their own routing.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// NewServer binds addr (e.g. ":9090", "127.0.0.1:0") and returns a server
// ready to Start.
func NewServer(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		WritePrometheus(w, Default(), opts.Extra...)
	})
	if opts.Progress != nil {
		progress := opts.Progress
		mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(progress.Snapshot())
		})
	}
	if opts.Recorder != nil {
		mux.Handle("/debug/slow", opts.Recorder)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &Server{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Start serves in a background goroutine and returns immediately.
func (s *Server) Start() {
	go s.srv.Serve(s.ln)
}

// Shutdown drains the server gracefully: the listener closes immediately,
// in-flight scrapes finish, bounded by ctx. Part of the service's drain
// path so the metrics port dies with the process, not after it.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close shuts the listener down and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

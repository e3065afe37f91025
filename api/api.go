// Package api defines the JSON wire format of the routing service
// (cmd/routed): the request and response bodies of POST /v1/route and
// POST /v1/plan, their strict decoders, and the validation rules that turn
// arbitrary client bytes into a well-formed routing instance or a clean
// 400 — never a panic.
//
// # JSON schema
//
// POST /v1/route routes one net. The body is a RouteRequest:
//
//	{
//	  "grid": {
//	    "w": 64, "h": 64, "pitch_mm": 0.25,
//	    "obstacles":          [{"x0":10,"y0":10,"x1":20,"y1":20}],
//	    "register_blockages": [{"x0":30,"y0":0,"x1":40,"y1":8}],
//	    "wiring_blockages":   []
//	  },
//	  "kind": "rbp",                   // "fastpath" | "rbp" | "gals"
//	  "period_ps": 500,                // rbp
//	  "src_period_ps": 0,              // gals
//	  "dst_period_ps": 0,              // gals
//	  "src": {"x":1,  "y":1},
//	  "dst": {"x":60, "y":60},
//	  "timeout_ms": 1000,              // optional per-request deadline
//	  "max_configs": 0,                // optional search budget
//	  "cache": {"mode": "default"}     // optional: "default"|"bypass"|"refresh"
//	}
//
// Rectangles are half-open in grid units with corners in any order, like
// clockroute.R. Obstacles forbid gate insertion (wires pass), register
// blockages forbid clocked elements only, wiring blockages delete every
// incident edge.
//
// POST /v1/plan routes a batch of nets over one shared grid, fanned across
// the server's worker pool. The body is a PlanRequest:
//
//	{
//	  "grid": { ... as above ... },
//	  "nets": [
//	    {"name":"cpu-sram", "src":{"x":1,"y":1}, "dst":{"x":60,"y":60},
//	     "src_period_ps":500, "dst_period_ps":500,
//	     "wire_widths":[1,2]}           // optional width sweep
//	  ],
//	  "workers": 0,                    // <=0 selects the server default
//	  "timeout_ms": 5000,              // optional whole-batch deadline
//	  "cache": {"mode": "default"}     // optional, as on RouteRequest
//	}
//
// Nets with equal endpoint periods are routed with RBP, unequal with GALS.
//
// Responses are RouteResponse / PlanResponse on 200; every other status
// carries an ErrorResponse {"error":"..."}. Status mapping: 400 malformed
// or invalid request, 422 genuinely infeasible (no path exists), 429 load
// shed (Retry-After set), 503 shutting down, 504 per-request deadline
// exceeded with the search aborted.
//
// # Result cache
//
// The server memoizes results by content address: every request is reduced
// to a versioned canonical problem form (Canonicalize / CanonicalizeNet —
// rect corners ordered, blockage lists clipped/sorted/deduplicated,
// non-semantic fields like timeout_ms and workers stripped), encoded
// deterministically, and hashed (ProblemHash). Identical problems hit the
// cache and skip the search kernel entirely; a cached response is the
// byte-for-byte response a fresh search would produce, elapsed_ns timing
// aside.
//
// The optional "cache" block selects the interaction per request:
// "default" (lookup + fill), "bypass" (neither), "refresh" (recompute and
// overwrite). Unknown modes are rejected like any other malformed field.
// Responses carry "problem_hash" (hex) always and "cached": true when
// served from the cache — per net on /v1/plan. /v1/route additionally
// speaks HTTP conditional requests: the ETag is the quoted problem hash,
// If-None-Match with a matching tag yields 304 Not Modified, and every
// response carries "X-Cache: hit" or "X-Cache: miss".
package api

// Point is a grid coordinate on the wire.
type Point struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// Rect is a half-open grid rectangle on the wire; corners may arrive in
// any order.
type Rect struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
}

// GridSpec describes the routing grid and its blockage maps.
type GridSpec struct {
	W       int     `json:"w"`
	H       int     `json:"h"`
	PitchMM float64 `json:"pitch_mm"`
	// Obstacles forbid gate insertion; wires may pass (HardIP shadows).
	Obstacles []Rect `json:"obstacles,omitempty"`
	// RegisterBlockages forbid clocked elements only (ClockQuiet regions).
	RegisterBlockages []Rect `json:"register_blockages,omitempty"`
	// WiringBlockages delete every incident edge (WiringDense regions).
	WiringBlockages []Rect `json:"wiring_blockages,omitempty"`
}

// RouteRequest is the body of POST /v1/route.
type RouteRequest struct {
	Grid GridSpec `json:"grid"`
	// Kind selects the algorithm: "fastpath", "rbp", or "gals".
	Kind string `json:"kind"`
	// PeriodPS is the clock period for kind "rbp".
	PeriodPS float64 `json:"period_ps,omitempty"`
	// SrcPeriodPS / DstPeriodPS are the two domain periods for kind "gals".
	SrcPeriodPS float64 `json:"src_period_ps,omitempty"`
	DstPeriodPS float64 `json:"dst_period_ps,omitempty"`
	Src         Point   `json:"src"`
	Dst         Point   `json:"dst"`
	// TimeoutMS bounds this request's search wall time; 0 uses the server
	// default, and the server clamps to its configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxConfigs aborts the search after this many popped candidates
	// (0 = unlimited), mirroring Options.MaxConfigs.
	MaxConfigs int `json:"max_configs,omitempty"`
	// Cache selects how the request interacts with the server's result
	// cache; nil means "default". See the package doc's Result cache
	// section.
	Cache *CacheOptions `json:"cache,omitempty"`
}

// NetSpec is one net of a PlanRequest.
type NetSpec struct {
	Name        string  `json:"name"`
	Src         Point   `json:"src"`
	Dst         Point   `json:"dst"`
	SrcPeriodPS float64 `json:"src_period_ps"`
	DstPeriodPS float64 `json:"dst_period_ps"`
	// WireWidths optionally sweeps wire-width multiples, keeping the best.
	WireWidths []float64 `json:"wire_widths,omitempty"`
}

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	Grid GridSpec  `json:"grid"`
	Nets []NetSpec `json:"nets"`
	// Workers caps the concurrent searches for this batch; <= 0 selects the
	// server default, and the server clamps to its configured maximum.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the whole batch's wall time (same clamping as
	// RouteRequest.TimeoutMS).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Cache selects how the batch interacts with the per-net result cache;
	// nil means "default".
	Cache *CacheOptions `json:"cache,omitempty"`
}

// SearchStats mirrors core.Stats on the wire.
type SearchStats struct {
	Configs int `json:"configs"`
	Pushed  int `json:"pushed"`
	Pruned  int `json:"pruned"`
	// BoundPruned counts candidates cut by the admissible search bounds,
	// including (rbp and gals) those the incumbent probe's arrival key
	// rules out as the returned route; ProbeConfigs is the incumbent
	// probe's extra effort (not in Configs).
	BoundPruned  int   `json:"bound_pruned,omitempty"`
	ProbeConfigs int   `json:"probe_configs,omitempty"`
	Killed       int   `json:"killed,omitempty"`
	Waves        int   `json:"waves"`
	MaxQSize     int   `json:"max_q_size"`
	ElapsedNS    int64 `json:"elapsed_ns"`
}

// RouteResponse is the 200 body of POST /v1/route. Path and Gates are
// parallel: Gates[i] labels the element at Path[i] — "" for plain wire,
// "reg", "fifo", "latch", or "buf<N>" for buffer N of the library.
type RouteResponse struct {
	LatencyPS     float64     `json:"latency_ps"`
	SourceDelayPS float64     `json:"source_delay_ps"`
	SlackPS       float64     `json:"slack_ps,omitempty"`
	Registers     int         `json:"registers"`
	Buffers       int         `json:"buffers"`
	Path          []Point     `json:"path"`
	Gates         []string    `json:"gates"`
	Stats         SearchStats `json:"stats"`
	// ProblemHash is the hex content address of the canonical problem this
	// response answers (also the /v1/route ETag, unquoted).
	ProblemHash string `json:"problem_hash,omitempty"`
	// Cached reports the response was served from the result cache without
	// running a search. Stats then describe the search that originally
	// produced the entry.
	Cached bool `json:"cached,omitempty"`
}

// NetResult is one net's outcome inside a PlanResponse. Error is set when
// the net failed; the remaining fields are then zero.
type NetResult struct {
	Name      string   `json:"name"`
	Mode      string   `json:"mode,omitempty"` // "rbp" or "gals"
	Error     string   `json:"error,omitempty"`
	LatencyPS float64  `json:"latency_ps,omitempty"`
	SrcCycles int      `json:"src_cycles,omitempty"`
	DstCycles int      `json:"dst_cycles,omitempty"`
	Registers int      `json:"registers,omitempty"`
	Buffers   int      `json:"buffers,omitempty"`
	WireMM    float64  `json:"wire_mm,omitempty"`
	WireWidth float64  `json:"wire_width,omitempty"`
	Path      []Point  `json:"path,omitempty"`
	Gates     []string `json:"gates,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns,omitempty"`
	// ProblemHash is the hex content address of this net's canonical
	// per-net problem (the net name is not part of it).
	ProblemHash string `json:"problem_hash,omitempty"`
	// Cached reports the net was served from the result cache.
	Cached bool `json:"cached,omitempty"`
}

// PlanStats aggregates the batch, mirroring planner.PlanStats.
type PlanStats struct {
	Workers           int   `json:"workers"`
	NetsRouted        int   `json:"nets_routed"`
	NetsFailed        int   `json:"nets_failed"`
	TotalConfigs      int   `json:"total_configs"`
	TotalPushed       int   `json:"total_pushed"`
	TotalPruned       int   `json:"total_pruned"`
	TotalBoundPruned  int   `json:"total_bound_pruned,omitempty"`
	TotalProbeConfigs int   `json:"total_probe_configs,omitempty"`
	TotalWaves        int   `json:"total_waves"`
	MaxQSize          int   `json:"max_q_size"`
	ElapsedNS         int64 `json:"elapsed_ns"`
}

// PlanResponse is the 200 body of POST /v1/plan. Nets keeps the request
// order.
type PlanResponse struct {
	Nets  []NetResult `json:"nets"`
	Stats PlanStats   `json:"stats"`
}

// ErrorResponse is the body of every non-200 status.
type ErrorResponse struct {
	Error string `json:"error"`
}

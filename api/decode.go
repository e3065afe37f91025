package api

import (
	"errors"
	"fmt"
	"io"
	"math"

	"clockroute/internal/core"
)

// Resource ceilings enforced by validation, sized so a hostile request
// cannot make the service allocate unbounded memory before admission
// control even sees it.
const (
	// MaxRequestBytes bounds a request body; decoders read no further.
	MaxRequestBytes = 4 << 20
	// MaxGridNodes bounds w*h of a requested grid.
	MaxGridNodes = 1 << 21
	// MaxNets bounds the nets of one PlanRequest.
	MaxNets = 4096
	// MaxRects bounds each blockage list of a GridSpec.
	MaxRects = 4096
	// MaxWireWidths bounds one net's width sweep.
	MaxWireWidths = 16
	// maxCoord bounds rectangle coordinates; rects are clipped to the grid
	// anyway, the bound only keeps arithmetic far from overflow.
	maxCoord = 1 << 24
)

// DecodeRouteRequest strictly decodes and validates one RouteRequest from
// r: unknown fields, trailing data, oversized bodies, and semantically
// invalid instances are all errors. Any returned error is safe to report
// as a 400; decoding never panics regardless of input.
func DecodeRouteRequest(r io.Reader) (*RouteRequest, error) {
	var req RouteRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodePlanRequest is DecodeRouteRequest for PlanRequest bodies.
func DecodePlanRequest(r io.Reader) (*PlanRequest, error) {
	var req PlanRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeStrict decodes exactly one JSON value into v, rejecting unknown
// fields, trailing data, and bodies past MaxRequestBytes. It reads no
// more than one byte past the cap and never examines what lies beyond.
func decodeStrict[T Wire](r io.Reader, v *T) error {
	p := getBuf()
	defer putBuf(p)
	b, err := readAll(io.LimitReader(r, MaxRequestBytes+1), *p)
	*p = b
	end, derr := decodeStrictPrefix(b, v)
	switch {
	case derr != nil && err != nil:
		return fmt.Errorf("api: malformed request: %w", err)
	case derr != nil:
		return fmt.Errorf("api: malformed request: %w", derr)
	case err != nil || !onlySpace(b[end:]):
		return errors.New("api: trailing data after request body")
	case end > MaxRequestBytes:
		return fmt.Errorf("api: request body exceeds %d bytes", MaxRequestBytes)
	}
	return nil
}

// Validate checks a GridSpec against the resource ceilings and the grid
// package's own preconditions (NewGrid panics on bad dimensions, so the
// service must reject them here).
func (g *GridSpec) Validate() error {
	if g.W < 2 || g.H < 1 {
		return fmt.Errorf("api: grid %dx%d too small, want at least 2x1", g.W, g.H)
	}
	if n := int64(g.W) * int64(g.H); n > MaxGridNodes {
		return fmt.Errorf("api: grid %dx%d has %d nodes, limit %d", g.W, g.H, n, MaxGridNodes)
	}
	if !finitePositive(g.PitchMM) {
		return fmt.Errorf("api: grid pitch %g mm must be positive and finite", g.PitchMM)
	}
	for _, set := range []struct {
		name  string
		rects []Rect
	}{
		{"obstacles", g.Obstacles},
		{"register_blockages", g.RegisterBlockages},
		{"wiring_blockages", g.WiringBlockages},
	} {
		if len(set.rects) > MaxRects {
			return fmt.Errorf("api: %d %s, limit %d", len(set.rects), set.name, MaxRects)
		}
		for _, r := range set.rects {
			for _, c := range [4]int{r.X0, r.Y0, r.X1, r.Y1} {
				if c < -maxCoord || c > maxCoord {
					return fmt.Errorf("api: %s coordinate %d out of range", set.name, c)
				}
			}
		}
	}
	return nil
}

// contains reports whether p lies on the grid.
func (g *GridSpec) contains(p Point) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// Validate checks the request's semantics: a well-formed grid, on-grid
// distinct endpoints, a known algorithm kind, and the clock parameters
// that kind requires.
func (r *RouteRequest) Validate() error {
	if err := r.Grid.Validate(); err != nil {
		return err
	}
	kind, err := core.ParseKind(r.Kind)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	switch kind {
	case core.KindRBP:
		if !finitePositive(r.PeriodPS) {
			return fmt.Errorf("api: rbp needs a positive finite period_ps, got %g", r.PeriodPS)
		}
	case core.KindGALS:
		if !finitePositive(r.SrcPeriodPS) || !finitePositive(r.DstPeriodPS) {
			return fmt.Errorf("api: gals needs positive finite src_period_ps and dst_period_ps, got %g and %g",
				r.SrcPeriodPS, r.DstPeriodPS)
		}
	}
	if !r.Grid.contains(r.Src) || !r.Grid.contains(r.Dst) {
		return fmt.Errorf("api: endpoints %v -> %v must lie on the %dx%d grid",
			r.Src, r.Dst, r.Grid.W, r.Grid.H)
	}
	if r.Src == r.Dst {
		return errors.New("api: source equals sink")
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("api: negative timeout_ms %d", r.TimeoutMS)
	}
	if r.MaxConfigs < 0 {
		return fmt.Errorf("api: negative max_configs %d", r.MaxConfigs)
	}
	if r.Cache != nil {
		if err := r.Cache.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the batch request: a well-formed grid and a non-empty
// net list with unique names, on-grid endpoints, and positive periods.
func (r *PlanRequest) Validate() error {
	if err := r.Grid.Validate(); err != nil {
		return err
	}
	if len(r.Nets) == 0 {
		return errors.New("api: plan has no nets")
	}
	if len(r.Nets) > MaxNets {
		return fmt.Errorf("api: %d nets, limit %d", len(r.Nets), MaxNets)
	}
	seen := make(map[string]bool, len(r.Nets))
	for i, n := range r.Nets {
		if n.Name == "" {
			return fmt.Errorf("api: net %d has an empty name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("api: duplicate net name %q", n.Name)
		}
		seen[n.Name] = true
		if err := n.Validate(&r.Grid); err != nil {
			return err
		}
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("api: negative timeout_ms %d", r.TimeoutMS)
	}
	if r.Workers < 0 {
		return fmt.Errorf("api: negative workers %d", r.Workers)
	}
	if r.Cache != nil {
		if err := r.Cache.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks one net against g: a non-empty name, positive finite
// periods, on-grid distinct endpoints, and a bounded, positive width sweep.
// It is the per-net half of PlanRequest.Validate, shared with the streaming
// decoder, which validates each line as it arrives; name uniqueness is the
// caller's, since it is a property of the batch, not the net.
func (n *NetSpec) Validate(g *GridSpec) error {
	if n.Name == "" {
		return errors.New("api: net with empty name")
	}
	if !finitePositive(n.SrcPeriodPS) || !finitePositive(n.DstPeriodPS) {
		return fmt.Errorf("api: net %q needs positive finite periods, got %g and %g",
			n.Name, n.SrcPeriodPS, n.DstPeriodPS)
	}
	if !g.contains(n.Src) || !g.contains(n.Dst) {
		return fmt.Errorf("api: net %q endpoints %v -> %v must lie on the %dx%d grid",
			n.Name, n.Src, n.Dst, g.W, g.H)
	}
	if n.Src == n.Dst {
		return fmt.Errorf("api: net %q source equals sink", n.Name)
	}
	if len(n.WireWidths) > MaxWireWidths {
		return fmt.Errorf("api: net %q sweeps %d wire widths, limit %d", n.Name, len(n.WireWidths), MaxWireWidths)
	}
	for _, w := range n.WireWidths {
		if !finitePositive(w) {
			return fmt.Errorf("api: net %q wire width %g must be positive and finite", n.Name, w)
		}
	}
	return nil
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

package api

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"clockroute/internal/core"
)

// CanonicalVersion is the version of the canonical problem form. It is the
// first field of the hashed encoding, so any change to normalization or
// encoding rules bumps it and retires every previously computed hash
// instead of silently colliding with it.
const CanonicalVersion = 1

// Cache modes accepted in the "cache" block of a request. The empty string
// and "default" are equivalent.
const (
	// CacheModeDefault consults the cache and fills it on a miss.
	CacheModeDefault = "default"
	// CacheModeBypass ignores the cache entirely: no lookup, no fill.
	CacheModeBypass = "bypass"
	// CacheModeRefresh skips the lookup but overwrites the entry with the
	// freshly computed result.
	CacheModeRefresh = "refresh"
)

// CacheOptions is the optional "cache" block of RouteRequest and
// PlanRequest, selecting how the request interacts with the server's
// content-addressed result cache.
type CacheOptions struct {
	// Mode is "default" (or empty), "bypass", or "refresh"; anything else
	// is rejected by validation.
	Mode string `json:"mode,omitempty"`
}

// Validate rejects unknown cache modes.
func (c *CacheOptions) Validate() error {
	switch c.Mode {
	case "", CacheModeDefault, CacheModeBypass, CacheModeRefresh:
		return nil
	}
	return fmt.Errorf("api: unknown cache mode %q (want default, bypass, or refresh)", c.Mode)
}

// EffectiveMode resolves the mode of a possibly nil options block.
func (c *CacheOptions) EffectiveMode() string {
	if c == nil || c.Mode == "" {
		return CacheModeDefault
	}
	return c.Mode
}

// ProblemHash is the SHA-256 of a canonical problem encoding — the
// content address of a routing problem. Two requests with equal hashes
// are the same problem and produce byte-identical results (modulo wall
// time), which is what makes the hash safe as a cache key and as the
// consistent-hashing key of the planned sharded cluster.
type ProblemHash [sha256.Size]byte

// Hex renders the hash as lowercase hex, the form carried on the wire
// ("problem_hash") and in the ETag of /v1/route.
func (h ProblemHash) Hex() string { return hex.EncodeToString(h[:]) }

// String implements fmt.Stringer.
func (h ProblemHash) String() string { return h.Hex() }

// ETag renders the strong entity tag derived from the hash, as emitted by
// /v1/route and matched against If-None-Match.
func (h ProblemHash) ETag() string { return `"` + h.Hex() + `"` }

// Uint64 folds the hash to its first eight bytes (big-endian), the fixed
// point a consistent-hashing ring keys on. SHA-256 output is uniform, so
// the prefix is as well-distributed as the whole digest.
func (h ProblemHash) Uint64() uint64 { return binary.BigEndian.Uint64(h[:8]) }

// Problem is the versioned canonical form of one routing problem: every
// field is normalized so that two requests meaning the same search
// compare (and hash) equal.
//
// Normalization rules:
//   - rectangle corners are ordered (x0<=x1, y0<=y1), rects are clipped to
//     the grid, empties dropped, and each blockage list is sorted and
//     deduplicated — grid construction is order-independent and
//     idempotent, so none of this changes the built grid;
//   - fields the algorithm kind does not consult are zeroed (an RBP
//     problem carries only PeriodPS, a GALS problem only the two endpoint
//     periods, FastPath none);
//   - non-semantic request fields (timeout_ms, workers, the cache block)
//     are absent by construction.
//
// MaxConfigs stays: it changes which searches abort, and the cache must
// never conflate problems whose responses could differ in any byte.
type Problem struct {
	Version     int
	Kind        string
	PeriodPS    float64
	SrcPeriodPS float64
	DstPeriodPS float64
	Grid        GridSpec
	Src, Dst    Point
	MaxConfigs  int
	// WireWidths is the per-net width sweep (plan nets only). Order is
	// preserved: the sweep keeps the first-best result, so reordering is
	// not semantics-preserving.
	WireWidths []float64
}

// Canonicalize reduces a validated RouteRequest to its canonical problem
// form. It returns an error on requests that fail Validate — callers that
// decoded through DecodeRouteRequest never see one.
func Canonicalize(req *RouteRequest) (Problem, error) {
	if err := req.Validate(); err != nil {
		return Problem{}, err
	}
	kind, _ := core.ParseKind(req.Kind) // validated above
	p := Problem{
		Version:    CanonicalVersion,
		Kind:       kind.String(),
		Grid:       canonicalGrid(&req.Grid),
		Src:        req.Src,
		Dst:        req.Dst,
		MaxConfigs: req.MaxConfigs,
	}
	switch kind {
	case core.KindRBP:
		p.PeriodPS = req.PeriodPS
	case core.KindGALS:
		p.SrcPeriodPS = req.SrcPeriodPS
		p.DstPeriodPS = req.DstPeriodPS
	}
	return p, nil
}

// CanonicalizeNet reduces one net of a validated PlanRequest to its
// canonical per-net problem. The net's name is deliberately absent: two
// nets with the same geometry and clocks under different names are the
// same problem. Nets with equal endpoint periods canonicalize to an RBP
// problem at that period, unequal to GALS, mirroring the planner's
// dispatch rule.
func CanonicalizeNet(grid *GridSpec, net *NetSpec) (Problem, error) {
	if err := grid.Validate(); err != nil {
		return Problem{}, err
	}
	if !finitePositive(net.SrcPeriodPS) || !finitePositive(net.DstPeriodPS) {
		return Problem{}, fmt.Errorf("api: net needs positive finite periods, got %g and %g",
			net.SrcPeriodPS, net.DstPeriodPS)
	}
	if !grid.contains(net.Src) || !grid.contains(net.Dst) || net.Src == net.Dst {
		return Problem{}, fmt.Errorf("api: net endpoints %v -> %v invalid on the %dx%d grid",
			net.Src, net.Dst, grid.W, grid.H)
	}
	p := Problem{
		Version: CanonicalVersion,
		Grid:    canonicalGrid(grid),
		Src:     net.Src,
		Dst:     net.Dst,
	}
	if net.SrcPeriodPS == net.DstPeriodPS {
		p.Kind = core.KindRBP.String()
		p.PeriodPS = net.SrcPeriodPS
	} else {
		p.Kind = core.KindGALS.String()
		p.SrcPeriodPS = net.SrcPeriodPS
		p.DstPeriodPS = net.DstPeriodPS
	}
	if len(net.WireWidths) > 0 {
		p.WireWidths = append([]float64(nil), net.WireWidths...)
	}
	return p, nil
}

// canonicalGrid normalizes a GridSpec: each blockage list has its rect
// corners ordered, rects clipped to the grid, empties dropped, and the
// survivors sorted and deduplicated.
func canonicalGrid(g *GridSpec) GridSpec {
	return GridSpec{
		W:                 g.W,
		H:                 g.H,
		PitchMM:           g.PitchMM,
		Obstacles:         canonicalRects(g.Obstacles, g.W, g.H),
		RegisterBlockages: canonicalRects(g.RegisterBlockages, g.W, g.H),
		WiringBlockages:   canonicalRects(g.WiringBlockages, g.W, g.H),
	}
}

// canonicalRects normalizes one blockage list. The result is nil when no
// rect survives, so "no blockages" encodes identically whether the list
// was absent, empty, or all-empty rects.
func canonicalRects(rects []Rect, w, h int) []Rect {
	out := make([]Rect, 0, len(rects))
	for _, r := range rects {
		if r.X0 > r.X1 {
			r.X0, r.X1 = r.X1, r.X0
		}
		if r.Y0 > r.Y1 {
			r.Y0, r.Y1 = r.Y1, r.Y0
		}
		// Clip to the grid: points outside never affect construction.
		r.X0 = max(r.X0, 0)
		r.Y0 = max(r.Y0, 0)
		r.X1 = min(r.X1, w)
		r.Y1 = min(r.Y1, h)
		if r.X0 >= r.X1 || r.Y0 >= r.Y1 {
			continue // empty after normalization
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return rectLess(out[i], out[j]) })
	dedup := out[:1]
	for _, r := range out[1:] {
		if r != dedup[len(dedup)-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

func rectLess(a, b Rect) bool {
	switch {
	case a.X0 != b.X0:
		return a.X0 < b.X0
	case a.Y0 != b.Y0:
		return a.Y0 < b.Y0
	case a.X1 != b.X1:
		return a.X1 < b.X1
	default:
		return a.Y1 < b.Y1
	}
}

// Hash computes the content address of the canonical problem: SHA-256
// over the deterministic encoding of AppendBinary.
func (p *Problem) Hash() ProblemHash {
	h := sha256.New()
	h.Write(p.AppendBinary(make([]byte, 0, 256)))
	var out ProblemHash
	h.Sum(out[:0])
	return out
}

// AppendBinary appends the deterministic binary encoding of the problem
// to dst. The layout is fixed-order and length-prefixed: every field is
// written in declaration order as big-endian fixed-width words, strings
// and lists carry a uint32 length prefix, and floats are written as IEEE
// 754 bits (so -0 and 0 hash differently — validation admits neither
// where it matters). No two distinct canonical problems share an
// encoding.
func (p *Problem) AppendBinary(dst []byte) []byte {
	dst = appendUint32(dst, uint32(p.Version))
	dst = appendString(dst, p.Kind)
	dst = appendFloat(dst, p.PeriodPS)
	dst = appendFloat(dst, p.SrcPeriodPS)
	dst = appendFloat(dst, p.DstPeriodPS)
	dst = appendInt(dst, p.Grid.W)
	dst = appendInt(dst, p.Grid.H)
	dst = appendFloat(dst, p.Grid.PitchMM)
	dst = appendRects(dst, p.Grid.Obstacles)
	dst = appendRects(dst, p.Grid.RegisterBlockages)
	dst = appendRects(dst, p.Grid.WiringBlockages)
	dst = appendInt(dst, p.Src.X)
	dst = appendInt(dst, p.Src.Y)
	dst = appendInt(dst, p.Dst.X)
	dst = appendInt(dst, p.Dst.Y)
	dst = appendInt(dst, p.MaxConfigs)
	// The retired array_queues flag's byte, always 0, keeps every hash,
	// ETag, cache key and snapshot of earlier builds valid.
	dst = append(dst, 0)
	dst = appendUint32(dst, uint32(len(p.WireWidths)))
	for _, w := range p.WireWidths {
		dst = appendFloat(dst, w)
	}
	return dst
}

func appendUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

func appendInt(dst []byte, v int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(int64(v)))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	dst = appendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendRects(dst []byte, rects []Rect) []byte {
	dst = appendUint32(dst, uint32(len(rects)))
	for _, r := range rects {
		dst = appendInt(dst, r.X0)
		dst = appendInt(dst, r.Y0)
		dst = appendInt(dst, r.X1)
		dst = appendInt(dst, r.Y1)
	}
	return dst
}

// Package faultpoint is the fault-injection registry of the routing
// system: a set of named failpoints compiled into the hot paths (arena
// growth, wave pushes, sink writes, request decoding) and the cluster
// edges (the coordinator's coord.dial, coord.send, and coord.recv sites,
// each also addressable per backend as coord.dial.0 and so on) that can be
// armed at run time to inject panics, errors, or delays. The chaos suite
// uses it to prove that a panic in one search degrades exactly one net,
// never the process, and that a partitioned backend degrades exactly one
// shard, never the plan.
//
// When no failpoint is armed the entire subsystem costs one atomic load
// per site — Check and Must return immediately — so the instrumented hot
// loops stay within their allocation and latency budgets.
//
// # Activation
//
// Failpoints are armed programmatically (Set, Enable) or through the
// FAULTPOINTS environment variable, read at process start:
//
//	FAULTPOINTS=arena.grow=panic routed -addr :8080
//	FAULTPOINTS='core.wave_push=panic@1000,sink.write=delay:5ms' planner
//
// The spec grammar is a comma-separated list of name=mode[:arg][@hit]
// terms:
//
//	name=panic          panic on every hit
//	name=error          return ErrInjected on every hit
//	name=delay:50ms     sleep 50ms on every hit
//	name=panic@123      fire on the 123rd hit only, then disarm
//
// A site without an error return (e.g. a queue push) reaches the registry
// through Must, which turns error mode into a panic carrying ErrInjected —
// the containment layer classifies it like any other contained panic, and
// errors.Is(err, ErrInjected) still identifies the injection.
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, letting
// callers (the planner's retry policy, chaos assertions) distinguish an
// injected fault from an organic failure.
var ErrInjected = errors.New("faultpoint: injected fault")

// Mode is what an armed failpoint does when hit.
type Mode uint8

// Failpoint modes.
const (
	// ModePanic panics with an *Injected value.
	ModePanic Mode = iota
	// ModeError returns an error wrapping ErrInjected.
	ModeError
	// ModeDelay sleeps for the configured duration, then continues.
	ModeDelay
)

// String names the mode as written in specs.
func (m Mode) String() string {
	switch m {
	case ModePanic:
		return "panic"
	case ModeError:
		return "error"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Injected is the value thrown by a panic-mode failpoint. It implements
// error and wraps ErrInjected, so a containment layer that folds the
// recovered value into its typed error keeps the injection identifiable
// via errors.Is.
type Injected struct {
	// Name is the failpoint that fired.
	Name string
	// Hit is the 1-based hit count at which it fired.
	Hit int64
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("faultpoint: injected fault at %q (hit %d)", e.Name, e.Hit)
}

// Unwrap ties the injection to the ErrInjected sentinel.
func (e *Injected) Unwrap() error { return ErrInjected }

// point is one armed failpoint.
type point struct {
	mode  Mode
	delay time.Duration
	// onHit, when > 0, fires on exactly that hit (1-based) and never again.
	onHit int64
	hits  atomic.Int64
}

var (
	// armed is the global fast-path switch: false means every Check/Must
	// returns after a single atomic load, regardless of registry content.
	armed atomic.Bool

	mu     sync.RWMutex
	points = map[string]*point{}
)

func init() {
	if s := os.Getenv("FAULTPOINTS"); s != "" {
		// A typo in a fault-injection spec silently testing nothing is worse
		// than a startup failure: fail loudly.
		if err := Set(s); err != nil {
			panic(fmt.Sprintf("faultpoint: bad FAULTPOINTS env: %v", err))
		}
	}
}

// Active reports whether any failpoint is armed. The inactive path of
// every site reduces to this one atomic load.
func Active() bool { return armed.Load() }

// Check hits the named failpoint: it returns an error wrapping ErrInjected
// in error mode, panics with an *Injected in panic mode, sleeps in delay
// mode, and returns nil when the point is not armed (the common case, one
// atomic load).
func Check(name string) error {
	if !armed.Load() {
		return nil
	}
	return check(name)
}

// Must is Check for sites without an error return (queue pushes, slab
// growth): error mode panics with the *Injected value instead of returning
// it, relying on the surrounding containment boundary. It inlines into its
// sites as the one atomic load; the armed path is a call.
func Must(name string) {
	if armed.Load() {
		mustArmed(name)
	}
}

// mustArmed is Must's armed path, kept out of line so Must stays within
// the inliner's budget.
//
//go:noinline
func mustArmed(name string) {
	if err := check(name); err != nil {
		panic(err)
	}
}

// check runs the armed-path logic for one hit of name.
func check(name string) error {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	hit := p.hits.Add(1)
	if p.onHit > 0 && hit != p.onHit {
		return nil
	}
	switch p.mode {
	case ModePanic:
		panic(&Injected{Name: name, Hit: hit})
	case ModeError:
		return &Injected{Name: name, Hit: hit}
	case ModeDelay:
		time.Sleep(p.delay)
	}
	return nil
}

// Enable arms one failpoint from its spec fragment (the part after the
// '=': "panic", "error", "delay:50ms", optionally suffixed "@N"). It
// replaces any existing configuration for name, with a fresh hit counter.
func Enable(name, spec string) error {
	if name == "" {
		return errors.New("faultpoint: empty failpoint name")
	}
	p := &point{}
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		n, err := parsePositiveInt(spec[at+1:])
		if err != nil {
			return fmt.Errorf("faultpoint: %s: bad hit count %q: %w", name, spec[at+1:], err)
		}
		p.onHit = n
		spec = spec[:at]
	}
	mode, arg, _ := strings.Cut(spec, ":")
	switch mode {
	case "panic":
		p.mode = ModePanic
	case "error":
		p.mode = ModeError
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return fmt.Errorf("faultpoint: %s: bad delay %q", name, arg)
		}
		p.mode, p.delay = ModeDelay, d
	default:
		return fmt.Errorf("faultpoint: %s: unknown mode %q (want panic, error, or delay:<duration>)", name, mode)
	}
	if arg != "" && p.mode != ModeDelay {
		return fmt.Errorf("faultpoint: %s: mode %s takes no argument", name, mode)
	}
	mu.Lock()
	points[name] = p
	armed.Store(true)
	mu.Unlock()
	return nil
}

// Set parses a full comma-separated spec list ("a=panic,b=delay:1ms@7")
// and replaces the entire registry with it. An empty string disarms
// everything, like Reset.
func Set(specs string) error {
	Reset()
	if strings.TrimSpace(specs) == "" {
		return nil
	}
	for _, term := range strings.Split(specs, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, spec, ok := strings.Cut(term, "=")
		if !ok {
			return fmt.Errorf("faultpoint: bad term %q (want name=mode[:arg][@hit])", term)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Disable disarms one failpoint; the rest stay armed.
func Disable(name string) {
	mu.Lock()
	delete(points, name)
	armed.Store(len(points) > 0)
	mu.Unlock()
}

// Reset disarms every failpoint, restoring the zero-cost inactive path.
func Reset() {
	mu.Lock()
	points = map[string]*point{}
	armed.Store(false)
	mu.Unlock()
}

// Hits reports how many times the named failpoint has been hit since it
// was armed (0 when not armed) — chaos tests use it to verify a site is
// actually exercised.
func Hits(name string) int64 {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// List returns the armed failpoint names, sorted (diagnostics).
func List() []string {
	mu.RLock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	mu.RUnlock()
	sort.Strings(out)
	return out
}

// parsePositiveInt parses a strictly positive decimal integer.
func parsePositiveInt(s string) (int64, error) {
	if s == "" {
		return 0, errors.New("empty")
	}
	var n int64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("not a number: %q", s)
		}
		n = n*10 + int64(r-'0')
		if n < 0 {
			return 0, fmt.Errorf("overflow: %q", s)
		}
	}
	if n == 0 {
		return 0, errors.New("hit count must be >= 1")
	}
	return n, nil
}

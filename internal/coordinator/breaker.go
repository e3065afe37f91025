package coordinator

import (
	"sync"
	"time"
)

// Circuit states, reported through /healthz and the coord_backend_up
// series.
const (
	// StateClosed: the backend is healthy; traffic flows.
	StateClosed = "closed"
	// StateOpen: consecutive failures crossed the threshold; all traffic
	// re-routes until the cooldown elapses.
	StateOpen = "open"
	// StateHalfOpen: the cooldown elapsed and exactly one probe exchange
	// is allowed through; its outcome closes or reopens the circuit.
	StateHalfOpen = "half-open"
)

// breaker is a per-backend circuit breaker. Closed it admits everything
// and counts consecutive failures; at the threshold it opens and rejects
// until cooldown has elapsed; then it half-opens, admitting a single probe
// whose success closes the circuit and whose failure reopens it (with a
// fresh cooldown); a probe whose exchange ends with no verdict is handed
// back through ReturnProbe. All transitions happen inside
// Allow/Success/Failure/ReturnProbe — there is no background state
// machine to leak — and each call that reads the clock takes the time as
// an argument.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    string
	failures int // consecutive
	openedAt time.Time
	probing  bool   // a half-open probe is in flight
	probeGen uint64 // identifies the outstanding probe grant
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, state: StateClosed}
}

// Allow reports whether one exchange may be sent to the backend. In the
// half-open state it grants exactly one in-flight probe, identified by
// the returned nonzero token; concurrent callers are rejected until that
// probe settles. Every granted probe MUST be resolved — by Success, by
// Failure, or by ReturnProbe(token) when the admitted exchange ends
// without a verdict — or the circuit stays half-open refusing all
// traffic, the health prober included.
func (b *breaker) Allow(now time.Time) (ok bool, probe uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true, 0
	case StateOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false, 0
		}
		b.state = StateHalfOpen
		return true, b.grantProbe()
	default: // half-open
		if b.probing {
			return false, 0
		}
		return true, b.grantProbe()
	}
}

// grantProbe marks the single half-open probe in flight and mints its
// token. Callers hold b.mu.
func (b *breaker) grantProbe() uint64 {
	b.probing = true
	b.probeGen++
	return b.probeGen
}

// ReturnProbe returns an unresolved probe grant: the admitted exchange
// ended without proving anything about the backend (its plan was
// canceled, or the placement that took the grant had to wait), so the
// circuit stays half-open and a later Allow may grant a fresh probe.
// Stale tokens — grants already resolved by Success or Failure — are
// ignored, so a late return can never release a newer in-flight probe.
func (b *breaker) ReturnProbe(token uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if token != 0 && b.probing && token == b.probeGen {
		b.probing = false
	}
}

// Success records a clean exchange, closing the circuit.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = StateClosed
	b.failures = 0
	b.probing = false
}

// Failure records a failed exchange: a half-open probe reopens the
// circuit immediately, a closed circuit opens once consecutive failures
// reach the threshold.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == StateHalfOpen || b.failures >= b.threshold {
		b.state = StateOpen
		b.openedAt = now
		b.probing = false
	}
}

// State reports the current circuit state, resolving an elapsed open
// cooldown as half-open so health output matches what Allow would do.
func (b *breaker) State(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateOpen && now.Sub(b.openedAt) >= b.cooldown {
		return StateHalfOpen
	}
	return b.state
}

// Failures reports the consecutive-failure count.
func (b *breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}

package coordinator

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"clockroute/api"
)

// The seeded simulator drives one plan's sched directly — no goroutines,
// sockets or timers — through a random schedule of the events the shell
// delivers: nets arriving (at once or paced, each after the previous
// one's line), the end of the input, uploads claiming nets, backends
// answering in any order, clean trailers, dial, send and receive faults,
// refusals before a stream opens (the client replays the upload while
// the refused attempt may still claim once), answers for unknown nets,
// trailers that leave nets unanswered, connection resets, in-process
// routing, clock jumps past the cooldown, prober ticks and cancellation.
// When no event can change anything it checks the invariants: every net
// emitted exactly once, the plan terminated, no half-open grant held, no
// exchange left waiting for work, and on an uncanceled plan the emitted
// lines and summed stats equal the serial plan's.

// simSeeds is how many seeded schedules a plain go test runs.
const simSeeds = 3000

// simShape is a schedule's fixed parameters; the seed draws the rest.
type simShape struct {
	backends int     // 1–4
	inFlight int     // 1–3
	nets     int     // 1–16, over at most 6 distinct problems
	faults   float64 // per-exchange chance of each fault kind, 0–0.5
	paced    bool    // each net arrives only after every earlier net's line
	cancel   bool    // the plan is canceled at a random step
}

// newSimShape clamps fuzzer-chosen bytes into a shape.
func newSimShape(backends, inFlight, nets, faults uint8, paced, cancel bool) simShape {
	return simShape{
		backends: 1 + int(backends)%4,
		inFlight: 1 + int(inFlight)%3,
		nets:     1 + int(nets)%16,
		faults:   float64(faults) / 510,
		paced:    paced,
		cancel:   cancel,
	}
}

func (sh simShape) String() string {
	return fmt.Sprintf("backends=%d inflight=%d nets=%d faults=%.2f paced=%v cancel=%v",
		sh.backends, sh.inFlight, sh.nets, sh.faults, sh.paced, sh.cancel)
}

// randomSimShape is the shape tier 1 runs for seed: a quarter of the
// schedules fault-free, a quarter canceled, a third paced.
func randomSimShape(seed int64) (backends, inFlight, nets, faults uint8, paced, cancel bool) {
	r := rand.New(rand.NewSource(seed))
	backends, inFlight, nets = uint8(r.Intn(4)), uint8(r.Intn(3)), uint8(r.Intn(16))
	if r.Intn(4) != 0 {
		faults = uint8(1 + r.Intn(255))
	}
	return backends, inFlight, nets, faults, r.Intn(3) == 0, r.Intn(4) == 0
}

func TestSimulatedSchedules(t *testing.T) {
	for seed := int64(1); seed <= simSeeds; seed++ {
		sh := newSimShape(randomSimShape(seed))
		if err := simulate(seed, sh); err != nil {
			t.Fatalf("seed %d (%v): %v", seed, sh, err)
		}
	}
}

// FuzzSchedule runs the simulator on a fuzzer-chosen seed and shape.
// testdata/fuzz/FuzzSchedule keeps the schedules that once failed.
func FuzzSchedule(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		backends, inFlight, nets, faults, paced, cancel := randomSimShape(seed)
		f.Add(seed, backends, inFlight, nets, faults, paced, cancel)
	}
	f.Fuzz(func(t *testing.T, seed int64, backends, inFlight, nets, faults uint8, paced, cancel bool) {
		sh := newSimShape(backends, inFlight, nets, faults, paced, cancel)
		if err := simulate(seed, sh); err != nil {
			t.Fatalf("seed %d (%v): %v", seed, sh, err)
		}
	})
}

var (
	errSimDial   = errors.New("sim: dial refused")
	errSimSend   = errors.New("sim: upload broken")
	errSimRecv   = errors.New("sim: connection reset mid-stream")
	errSimGiveUp = errors.New("sim: giving up after refusals")
)

// simNet is the serial plan's answer for problem p under name: routing
// is deterministic in the problem, so every backend and the in-process
// path give the same line and stats. Every fifth problem has no route.
func simNet(name string, p int) (api.NetResult, api.PlanStats) {
	hash := simHash(p)
	if p%5 == 4 {
		return api.NetResult{Name: name, Error: "core: no path", ProblemHash: hash.Hex()},
			api.PlanStats{NetsFailed: 1, TotalConfigs: 10 + p, TotalWaves: 1}
	}
	return api.NetResult{Name: name, Mode: "rbp", LatencyPS: float64(400 + 37*p), Registers: p % 4, Buffers: p % 3, ProblemHash: hash.Hex()},
		api.PlanStats{NetsRouted: 1, TotalConfigs: 100 + 13*p, TotalPushed: 150 + 7*p, TotalPruned: p, TotalWaves: 2 + p%3, MaxQSize: 3 + 7*p%11}
}

func simHash(p int) api.ProblemHash { return sha256.Sum256([]byte(fmt.Sprintf("problem %d", p))) }

// simExchange is the simulator's view of one exchange: its client's
// upload, the backend's side of the stream, and the faults drawn for it.
type simExchange struct {
	ex      *exchange
	up      int      // the live upload's next index
	stale   int      // a refused attempt's upload, which may claim once more; -1 if none
	recv    []string // nets the backend holds unanswered, in arrival order
	got     []string // nets the backend received this attempt
	eof     bool     // the live upload has ended
	broken  bool     // an upload failed: the stream will fail
	opened  bool     // a result line arrived: no more refusals
	answers int
	sends   int
	over    bool

	dial     bool
	sendFail int // the upload breaks at this send, 0 never
	recvFail int // the stream resets at this answer, 0 never
	unknown  int // this answer names a net the exchange never sent, 0 never
	drop     bool
	dropped  string // the net the backend's trailer leaves unanswered
	refusals int    // refusals left before the client gives up; -1 never refused
	reset    bool   // the connection may reset at any point
}

type sim struct {
	rng  *rand.Rand
	sh   simShape
	s    *sched
	brs  []*breaker
	now  time.Time
	nets []Net
	prob map[string]int

	next      int // the input's next net
	ended     bool
	canceled  bool
	cancelAt  int
	exs       []*simExchange
	local     []*job
	localHeld *job
	lines     map[string][]api.NetResult
	jumps     int // clock jumps left
	ticks     int // prober ticks left
	step      int
}

// simulate runs one schedule and returns the first invariant it breaks.
func simulate(seed int64, sh simShape) error {
	r := rand.New(rand.NewSource(seed))
	const cooldown = time.Second
	m := &sim{
		rng:   r,
		sh:    sh,
		now:   time.Unix(1_000_000, 0),
		prob:  make(map[string]int),
		lines: make(map[string][]api.NetResult),
		jumps: r.Intn(4),
		ticks: r.Intn(6),
	}
	urls := make([]string, sh.backends)
	threshold := 1 + r.Intn(3)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://sim-%d", i)
		m.brs = append(m.brs, newBreaker(threshold, cooldown))
	}
	m.s = newSched(newRing(urls), m.brs, sh.inFlight)
	problems := 1 + r.Intn(6)
	for i := 0; i < sh.nets; i++ {
		p := r.Intn(problems)
		name := fmt.Sprintf("net-%02d", i)
		m.prob[name] = p
		m.nets = append(m.nets, Net{Spec: api.NetSpec{Name: name}, Hash: simHash(p)})
	}
	if sh.cancel {
		m.cancelAt = r.Intn(8 * sh.nets)
	}

	const maxSteps = 100_000
	for ; m.step < maxSteps; m.step++ {
		acts := m.actions()
		progressed := false
		for len(acts) > 0 && !progressed {
			k := r.Intn(len(acts))
			var err error
			progressed, err = acts[k]()
			if err != nil {
				return fmt.Errorf("step %d: %w", m.step, err)
			}
			acts[k] = acts[len(acts)-1]
			acts = acts[:len(acts)-1]
		}
		if !progressed {
			break
		}
	}
	if m.step == maxSteps {
		return fmt.Errorf("no quiescence after %d steps", maxSteps)
	}
	return m.check()
}

// apply takes the effects of the step just run, as the shell would.
func (m *sim) apply() {
	fx := m.s.take()
	for _, ex := range fx.start {
		se := &simExchange{ex: ex, stale: -1, refusals: -1}
		f := m.sh.faults
		se.dial = m.rng.Float64() < f/2
		if m.rng.Float64() < f {
			se.sendFail = 1 + m.rng.Intn(4)
		}
		if m.rng.Float64() < f {
			se.recvFail = 1 + m.rng.Intn(4)
		}
		if m.rng.Float64() < f/2 {
			se.unknown = 1 + m.rng.Intn(4)
		}
		// A paced client waits for each line before it ends the upload,
		// so a backend that holds a line back until the trailer would
		// deadlock any client; a paced schedule draws no drops.
		se.drop = !m.sh.paced && m.rng.Float64() < f
		if m.rng.Float64() < f {
			se.refusals = m.rng.Intn(2)
		}
		se.reset = m.rng.Float64() < f/2
		m.exs = append(m.exs, se)
	}
	for _, nr := range fx.emit {
		m.lines[nr.Name] = append(m.lines[nr.Name], nr)
	}
	m.local = append(m.local, fx.local...)
}

// emittedAll reports whether every net added so far has a line.
func (m *sim) emittedAll() bool {
	for _, n := range m.nets[:m.next] {
		if len(m.lines[n.Spec.Name]) == 0 {
			return false
		}
	}
	return true
}

type simAction func() (progressed bool, err error)

// actions lists the events that may happen next.
func (m *sim) actions() []simAction {
	var acts []simAction
	if m.next < len(m.nets) && (!m.sh.paced || m.emittedAll()) {
		acts = append(acts, func() (bool, error) {
			ok := m.s.add(m.nets[m.next], m.now)
			if ok {
				m.next++
			}
			m.apply()
			return ok, nil
		})
	}
	if m.next == len(m.nets) && !m.ended && (!m.sh.paced || m.emittedAll()) {
		acts = append(acts, func() (bool, error) {
			m.s.endInput()
			m.ended = true
			m.apply()
			return true, nil
		})
	}
	if m.sh.cancel && !m.canceled && m.step >= m.cancelAt {
		acts = append(acts, func() (bool, error) {
			m.s.cancel(context.Canceled)
			m.canceled = true
			return true, nil
		})
	}
	if m.jumps > 0 {
		acts = append(acts, func() (bool, error) {
			m.jumps--
			m.now = m.now.Add(time.Second + time.Duration(m.rng.Intn(500))*time.Millisecond)
			return true, nil
		})
	}
	if m.ticks > 0 {
		acts = append(acts, func() (bool, error) {
			// The prober: a /healthz probe spends the half-open grant and
			// resolves it before the tick ends.
			m.ticks--
			for _, br := range m.brs {
				if br.State(m.now) == StateClosed {
					continue
				}
				if ok, _ := br.Allow(m.now); ok {
					if m.rng.Intn(2) == 0 {
						br.Success()
					} else {
						br.Failure(m.now)
					}
				}
			}
			return true, nil
		})
	}
	if len(m.local) > 0 {
		acts = append(acts, func() (bool, error) {
			if !m.s.takeLocal() {
				if m.localHeld != nil {
					return false, nil // waits for the net routing in-process
				}
				return false, errors.New("in-process slot refused with no net holding it")
			}
			if m.localHeld != nil {
				return false, errors.New("in-process slot granted twice")
			}
			k := m.rng.Intn(len(m.local))
			m.localHeld = m.local[k]
			m.local = append(m.local[:k], m.local[k+1:]...)
			return true, nil
		})
	}
	if m.localHeld != nil {
		acts = append(acts, func() (bool, error) {
			j := m.localHeld
			m.localHeld = nil
			nr, st := simNet(j.net.Spec.Name, m.prob[j.net.Spec.Name])
			if m.canceled {
				// The planner under a canceled context aborts the search.
				nr = api.NetResult{Name: j.net.Spec.Name, Error: "core: search aborted", ProblemHash: j.net.Hash.Hex()}
				st = api.PlanStats{NetsFailed: 1}
			}
			m.s.answerLocal(nr, st)
			m.apply()
			return true, nil
		})
	}
	for _, se := range m.exs {
		if !se.over {
			acts = append(acts, m.exchangeActions(se)...)
		}
	}
	return acts
}

// finish ends se's client call with st and err.
func (m *sim) finish(se *simExchange, st *api.PlanStats, err error) (bool, error) {
	se.over = true
	m.s.finish(se.ex, st, err, m.now)
	m.apply()
	return true, nil
}

// exchangeActions lists the events one live exchange may take next.
func (m *sim) exchangeActions(se *simExchange) []simAction {
	if se.dial {
		return []simAction{func() (bool, error) { return m.finish(se, nil, errSimDial) }}
	}
	var acts []simAction
	if !se.eof && !se.broken {
		acts = append(acts, func() (bool, error) {
			j, wait := m.s.claim(se.ex, se.up, m.now)
			switch {
			case wait:
				return false, nil
			case j == nil:
				se.eof = true
				return true, nil
			}
			se.up++
			se.sends++
			if se.sends == se.sendFail {
				se.broken = true
				return true, nil
			}
			name := j.net.Spec.Name
			se.got = append(se.got, name)
			if se.drop && se.dropped == "" {
				se.dropped = name
			} else {
				se.recv = append(se.recv, name)
			}
			return true, nil
		})
	}
	if se.stale >= 0 {
		acts = append(acts, func() (bool, error) {
			// The refused attempt's upload claims once more; its write
			// then fails on the closed request body and it stops.
			if _, wait := m.s.claim(se.ex, se.stale, m.now); wait {
				return false, nil
			}
			se.stale = -1
			return true, nil
		})
	}
	if len(se.recv) > 0 {
		acts = append(acts, func() (bool, error) {
			k := m.rng.Intn(len(se.recv))
			name := se.recv[k]
			se.recv = append(se.recv[:k], se.recv[k+1:]...)
			se.answers++
			se.opened = true
			switch se.answers {
			case se.recvFail:
				return m.finish(se, nil, errSimRecv)
			case se.unknown:
				_, err := m.s.answer(se.ex, api.NetResult{Name: "ghost-" + name}, m.now)
				if err == nil {
					return false, errors.New("an answer for a net never sent was accepted")
				}
				return m.finish(se, nil, err)
			}
			nr, _ := simNet(name, m.prob[name])
			if _, err := m.s.answer(se.ex, nr, m.now); err != nil {
				return false, fmt.Errorf("answer for a sent net rejected: %v", err)
			}
			m.apply()
			return true, nil
		})
	}
	if se.eof && len(se.recv) == 0 && !se.broken {
		acts = append(acts, func() (bool, error) {
			var st api.PlanStats
			for _, name := range se.got {
				_, ns := simNet(name, m.prob[name])
				addStats(&st, &ns)
			}
			return m.finish(se, &st, nil)
		})
	}
	if se.broken || se.reset || m.canceled {
		acts = append(acts, func() (bool, error) {
			err := errSimRecv
			switch {
			case se.broken:
				err = errSimSend
			case m.canceled:
				err = context.Canceled
			}
			return m.finish(se, nil, err)
		})
	}
	if se.refusals >= 0 && !se.opened {
		acts = append(acts, func() (bool, error) {
			if se.refusals == 0 {
				return m.finish(se, nil, errSimGiveUp)
			}
			se.refusals--
			if !se.eof && !se.broken {
				se.stale = se.up
			}
			se.up = 0
			se.recv, se.got, se.dropped = nil, nil, ""
			se.eof, se.broken, se.sends = false, false, 0
			return true, nil
		})
	}
	return acts
}

// check tests the invariants at quiescence.
func (m *sim) check() error {
	if !m.s.done() {
		return fmt.Errorf("plan did not terminate: input ended %v, %d nets unsettled", m.s.inputDone, m.s.outstanding)
	}
	for i, se := range m.exs {
		if !se.over {
			return fmt.Errorf("exchange %d (backend %d) still waits for work: %d queued, %d sent, upload closed %v",
				i, se.ex.be, len(se.ex.queue), len(se.ex.sent), se.ex.closed)
		}
	}
	for i, ex := range m.s.open {
		if ex != nil {
			return fmt.Errorf("backend %d still has an open exchange", i)
		}
	}
	for i, br := range m.brs {
		if br.probing {
			return fmt.Errorf("backend %d's half-open grant is still held", i)
		}
	}
	if m.s.localBusy || m.localHeld != nil || len(m.local) > 0 {
		return errors.New("in-process routing still busy")
	}
	var want api.PlanStats
	for _, n := range m.nets {
		name := n.Spec.Name
		got := m.lines[name]
		if len(got) != 1 {
			return fmt.Errorf("net %s emitted %d times", name, len(got))
		}
		line, st := simNet(name, m.prob[name])
		addStats(&want, &st)
		aborted := m.canceled && strings.Contains(got[0].Error, "aborted")
		if !aborted && !reflect.DeepEqual(got[0], line) {
			return fmt.Errorf("net %s: emitted %+v, serial plan %+v", name, got[0], line)
		}
	}
	if len(m.lines) != len(m.nets) {
		return fmt.Errorf("%d nets emitted, plan has %d", len(m.lines), len(m.nets))
	}
	if !m.canceled {
		if m.s.received != len(m.nets) {
			return fmt.Errorf("received %d nets, plan has %d", m.s.received, len(m.nets))
		}
		if m.s.stats != want {
			return fmt.Errorf("stats %+v, serial plan %+v", m.s.stats, want)
		}
	}
	return nil
}

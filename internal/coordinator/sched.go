package coordinator

import (
	"fmt"
	"time"

	"clockroute/api"
)

// sched is the scheduling core of one Plan call: where every net is,
// which exchange each backend has open, which lines went out and what the
// clean trailers counted. Its methods are the plan's events: add a net
// from the input, claim one for an upload, record an answer, finish an
// exchange, route a net in-process, cancel, end the input. Each takes the
// time it acts on as an argument, and none blocks, starts a goroutine,
// does I/O or writes a line: what a step needs done outside the lock (an
// exchange to run, a net to route in-process, a line to emit) collects in
// fx for the shell to take. The breakers are the only state a plan
// shares; they lock themselves.
type sched struct {
	ring     *ring
	brs      []*breaker // per backend index
	inFlight int

	open        []*exchange // per backend: the exchange still taking placements
	emitted     map[string]bool
	stats       api.PlanStats
	received    int
	outstanding int // nets not yet settled
	inputDone   bool
	cause       error // why the plan was canceled; nil while it runs
	localBusy   bool  // a net is routing in-process
	fx          effects
}

// effects is what the steps since the shell last looked asked of it.
type effects struct {
	start     []*exchange     // exchanges to run, one goroutine each
	local     []*job          // nets to route in-process
	emit      []api.NetResult // lines to write
	failovers int64           // nets moved off a failed exchange
}

// job is one net's journey through the cluster.
type job struct {
	net       Net
	attempted []bool    // per backend: an exchange there failed holding the net
	sentAt    time.Time // last upload, for the backend's latency series
}

// exchange is one NDJSON round trip to one backend and the unit of a
// plan's state: the nets placed on it and not yet uploaded (queue),
// uploaded in order (sent) and not yet answered (pending), and the
// half-open grant its circuit handed to a placement on it. Once its
// upload has closed, its backend's next placement opens a fresh exchange.
type exchange struct {
	be      int
	queue   []*job
	sent    []*job
	pending map[string]*job // by net name
	probe   uint64
	closed  bool // the upload has ended
	done    bool // the client call has returned
}

func newSched(r *ring, brs []*breaker, inFlight int) *sched {
	return &sched{ring: r, brs: brs, inFlight: inFlight, open: make([]*exchange, len(brs)), emitted: make(map[string]bool)}
}

// take hands over what the steps since the last take asked for.
func (s *sched) take() effects {
	fx := s.fx
	s.fx = effects{}
	return fx
}

// add takes n from the input. It reports false, changing nothing, while
// the exchange n would join already queues InFlight nets: the input waits
// for an upload to drain it (the backpressure path).
func (s *sched) add(n Net, now time.Time) bool {
	s.outstanding++
	if !s.place(&job{net: n, attempted: make([]bool, len(s.brs))}, now, true) {
		s.outstanding--
		return false
	}
	s.received++
	return true
}

// place puts j on the first backend of its ring walk that has not failed
// it and whose circuit admits it; with none left j routes in-process, and
// on a canceled plan it is aborted. A half-open grant the circuit hands
// out goes to the exchange j joins. With bound set, place hands the grant
// back and reports false when that exchange already queues InFlight nets;
// failover places without the bound, since its nets were admitted once.
func (s *sched) place(j *job, now time.Time, bound bool) bool {
	if s.cause != nil {
		s.abort(j)
		return true
	}
	be, probe := -1, uint64(0)
	s.ring.walk(j.net.Hash.Uint64(), func(idx int) bool {
		if j.attempted[idx] {
			return true
		}
		ok, tok := s.brs[idx].Allow(now)
		if ok {
			be, probe = idx, tok
		}
		return !ok
	})
	if be < 0 {
		s.fx.local = append(s.fx.local, j)
		return true
	}
	ex := s.open[be]
	if bound && ex != nil && len(ex.queue) >= s.inFlight {
		s.brs[be].ReturnProbe(probe)
		return false
	}
	if ex == nil {
		ex = &exchange{be: be, pending: make(map[string]*job)}
		s.open[be] = ex
		s.fx.start = append(s.fx.start, ex)
	}
	if probe != 0 {
		ex.probe = probe
	}
	ex.queue = append(ex.queue, j)
	return true
}

// claim hands the upload of ex its i-th net, or reports wait while there
// is none yet. Nets already sent are handed out again (a client refused
// before its stream opened replays the upload from the start); past
// them, claim moves the next queued net to sent, closing the upload
// behind the last one once the input has ended. A nil job without wait
// ends the upload.
func (s *sched) claim(ex *exchange, i int, now time.Time) (j *job, wait bool) {
	switch {
	case ex.done || s.cause != nil:
		return nil, false
	case i < len(ex.sent):
	case len(ex.queue) > 0:
		j = ex.queue[0]
		ex.queue = ex.queue[1:]
		ex.sent = append(ex.sent, j)
		ex.pending[j.net.Spec.Name] = j
		if s.inputDone && len(ex.queue) == 0 {
			s.closeUpload(ex)
		}
	default:
		return nil, !ex.closed
	}
	j = ex.sent[i]
	j.sentAt = now
	return j, false
}

// closeUpload ends the upload of ex.
func (s *sched) closeUpload(ex *exchange) {
	ex.closed = true
	if s.open[ex.be] == ex {
		s.open[ex.be] = nil
	}
}

// endInput records the end of the input and closes every upload with
// nothing queued; the others close behind their last queued net.
func (s *sched) endInput() {
	s.inputDone = true
	for _, ex := range s.open {
		if ex != nil && len(ex.queue) == 0 {
			s.closeUpload(ex)
		}
	}
}

// answer records the backend's result nr on ex and returns the net's
// round trip. A net ex is not waiting on is an error, which fails ex.
func (s *sched) answer(ex *exchange, nr api.NetResult, now time.Time) (time.Duration, error) {
	j := ex.pending[nr.Name]
	if j == nil {
		return 0, fmt.Errorf("coordinator: backend answered unknown net %q", nr.Name)
	}
	delete(ex.pending, nr.Name)
	s.emit(nr)
	return now.Sub(j.sentAt), nil
}

// finish ends ex once its client call has returned; a nil err means a
// clean trailer with stats st. A clean trailer that answered every sent
// net settles them with its stats and closes the circuit. Anything else
// fails ex: its circuit takes the failure, or on a canceled plan gets its
// half-open grant back unresolved, and every net ex held, answered or
// not, moves on along its ring walk, so each net's work is counted from
// exactly one clean trailer. finish returns the failure the backend is
// blamed for.
func (s *sched) finish(ex *exchange, st *api.PlanStats, err error, now time.Time) error {
	s.closeUpload(ex)
	ex.done = true
	if err == nil && len(ex.pending) > 0 {
		err = fmt.Errorf("coordinator: clean trailer with %d unanswered nets", len(ex.pending))
	}
	moved := ex.queue // a canceled upload can leave nets behind
	switch {
	case err == nil:
		s.brs[ex.be].Success()
		if st != nil {
			addStats(&s.stats, st)
		}
		s.outstanding -= len(ex.sent)
	case s.cause != nil:
		s.brs[ex.be].ReturnProbe(ex.probe)
		moved, err = append(ex.sent, ex.queue...), nil
	default:
		s.brs[ex.be].Failure(now)
		moved = append(ex.sent, ex.queue...)
		s.fx.failovers += int64(len(moved))
	}
	for _, j := range moved {
		j.attempted[ex.be] = true
		s.place(j, now, false)
	}
	return err
}

// takeLocal reserves in-process routing for one net, reporting false
// while another net holds it: degraded routing runs one net at a time.
func (s *sched) takeLocal() bool {
	if s.localBusy {
		return false
	}
	s.localBusy = true
	return true
}

// answerLocal settles the net routed in-process with its result nr and
// stats st, and frees in-process routing.
func (s *sched) answerLocal(nr api.NetResult, st api.PlanStats) {
	s.localBusy = false
	s.emit(nr)
	addStats(&s.stats, &st)
	s.outstanding--
}

// cancel records why the plan stopped. Uploads end at their next claim,
// and every net not yet settled is aborted when it is next placed: as it
// arrives, or as its exchange fails.
func (s *sched) cancel(cause error) {
	if s.cause == nil {
		s.cause = cause
	}
}

// abort settles j on a canceled plan: an aborted-failure line, counted as
// a failed net, unless a line for it already went out.
func (s *sched) abort(j *job) {
	if s.emit(api.NetResult{
		Name:        j.net.Spec.Name,
		Error:       fmt.Sprintf("server: net aborted: %v", s.cause),
		ProblemHash: j.net.Hash.Hex(),
	}) {
		s.stats.NetsFailed++
	}
	s.outstanding--
}

// emit queues nr for the stream unless a line for its net already went
// out (failover re-answers nets; routing is deterministic, so the
// duplicate is the same answer). It reports whether nr was queued.
func (s *sched) emit(nr api.NetResult) bool {
	if s.emitted[nr.Name] {
		return false
	}
	s.emitted[nr.Name] = true
	s.fx.emit = append(s.fx.emit, nr)
	return true
}

// done reports that the input has ended and every net has settled.
func (s *sched) done() bool { return s.inputDone && s.outstanding == 0 }

// addStats folds one clean trailer's (or in-process route's) stats into
// the aggregate. Workers and ElapsedNS are the plan's own, set at the
// end; MaxQSize is a high-water mark, so the plan's is the maximum.
func addStats(dst *api.PlanStats, src *api.PlanStats) {
	dst.NetsRouted += src.NetsRouted
	dst.NetsFailed += src.NetsFailed
	dst.TotalConfigs += src.TotalConfigs
	dst.TotalPushed += src.TotalPushed
	dst.TotalPruned += src.TotalPruned
	dst.TotalBoundPruned += src.TotalBoundPruned
	dst.TotalProbeConfigs += src.TotalProbeConfigs
	dst.TotalWaves += src.TotalWaves
	if src.MaxQSize > dst.MaxQSize {
		dst.MaxQSize = src.MaxQSize
	}
}

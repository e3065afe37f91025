package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Progress is a Sink maintaining a live snapshot of the batch engine's
// in-flight nets, the payload behind the /progress endpoint: which worker
// is routing which net of which request and for how long, and how many
// finished or failed. A server feeds it the events of every request, and
// two plans in flight may share a net name, so nets are keyed by request
// and name.
type Progress struct {
	mu       sync.Mutex
	done     int
	failed   int
	inflight map[netID]netState
}

// netID names one net of one request; the request is empty for events
// emitted outside the service.
type netID struct{ request, net string }

type netState struct {
	worker  int
	startNS int64
}

// NetProgress describes one in-flight net in a snapshot.
type NetProgress struct {
	Request string  `json:"request,omitempty"`
	Net     string  `json:"net"`
	Worker  int     `json:"worker"`
	Running float64 `json:"running_s"`
}

// Snapshot is the /progress payload.
type Snapshot struct {
	InFlight []NetProgress `json:"in_flight"`
	Done     int           `json:"done"`
	Failed   int           `json:"failed"`
}

// NewProgress builds an empty tracker.
func NewProgress() *Progress {
	return &Progress{inflight: make(map[netID]netState)}
}

// Emit implements Sink.
func (p *Progress) Emit(e Event) {
	if e.Kind != EventNetStart && e.Kind != EventNetEnd {
		return
	}
	id := netID{request: e.Request, net: e.Net}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.Kind == EventNetStart {
		p.inflight[id] = netState{worker: e.Worker, startNS: e.TimeNS}
		return
	}
	delete(p.inflight, id)
	if e.Err != "" {
		p.failed++
	} else {
		p.done++
	}
}

// Snapshot returns the current state; in-flight nets are sorted by
// request, then name, so repeated polls are stable.
func (p *Progress) Snapshot() Snapshot {
	nowNS := time.Now().UnixNano()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{Done: p.done, Failed: p.failed}
	for id, st := range p.inflight {
		s.InFlight = append(s.InFlight, NetProgress{
			Request: id.request,
			Net:     id.net,
			Worker:  st.worker,
			Running: float64(nowNS-st.startNS) / float64(time.Second),
		})
	}
	sort.Slice(s.InFlight, func(i, j int) bool {
		a, b := s.InFlight[i], s.InFlight[j]
		if a.Request != b.Request {
			return a.Request < b.Request
		}
		return a.Net < b.Net
	})
	return s
}

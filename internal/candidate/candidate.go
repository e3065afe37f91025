// Package candidate defines the partial-solution representation shared by
// the FastPath, RBP, and GALS algorithms, and the per-node Pareto stores
// that implement the (capacitance, delay) dominance pruning of the
// fast-path framework.
//
// A candidate α = (c, d, m, v) is a partial buffered path from node v back
// to the sink t: c is the input capacitance seen at v, d the Elmore delay
// from v to t. The labeling m is represented implicitly by the Parent chain
// — each candidate records only what changed (crossing an edge or inserting
// a gate), making candidate creation O(1) and path reconstruction a single
// backward walk.
package candidate

import (
	"math"

	"clockroute/internal/faultpoint"
)

// Gate identifies the element a candidate inserted at its node.
// Non-negative values index the technology's buffer library.
type Gate int16

const (
	// GateNone marks a plain wire extension (no element at this node).
	GateNone Gate = -1
	// GateRegister marks an inserted register / relay station.
	GateRegister Gate = -2
	// GateFIFO marks the inserted mixed-clock FIFO.
	GateFIFO Gate = -3
	// GateLatch marks an inserted two-phase transparent latch (the
	// latch-based routing extension).
	GateLatch Gate = -4
)

// IsClocked reports whether g is a register, MCFIFO, or transparent latch.
func (g Gate) IsClocked() bool {
	return g == GateRegister || g == GateFIFO || g == GateLatch
}

// Candidate is one partial solution. Candidates form a DAG through Parent;
// they are immutable after creation except for the Dead flag, which marks
// lazily-deleted (pruned) queue entries.
type Candidate struct {
	C float64 // input capacitance seen at Node, pF
	D float64 // Elmore delay from Node to the most recent sync element (or sink), ps
	L float64 // GALS only: latency from the most recent sync element back to the sink, ps
	// Slack is the timing slack of the sink-adjacent segment, fixed when
	// the first register closes that segment (RBP's max-slack extension).
	Slack float64

	Node int32 // grid node ID
	Gate Gate  // element inserted at Node when this candidate was created
	Z    uint8 // GALS only: 1 once the MCFIFO is on the path
	Regs int32 // clocked elements inserted so far (RBP wave index)

	Dead   bool       // pruned while still queued
	Final  bool       // a completed solution re-queued at the source (FastPath)
	Parent *Candidate // the downstream candidate this one extends
}

// Walk calls fn for every candidate from c back to the initial sink
// candidate, in upstream-to-downstream order (c first).
func (c *Candidate) Walk(fn func(*Candidate)) {
	for cur := c; cur != nil; cur = cur.Parent {
		fn(cur)
	}
}

// arenaBlock is the slab size of an Arena: enough to amortize slab
// allocation across thousands of expansions while keeping a mostly-idle
// pooled arena under a few hundred KiB.
const arenaBlock = 4096

// Arena is a slab allocator for Candidates. The search loops create one
// candidate per expansion — by far the dominant allocation of a run — so
// New hands out slots from chunked blocks instead of the heap, and Reset
// recycles every candidate of the finished search in O(1).
//
// Lifetime rule: a candidate obtained from New is valid only until the
// arena's next Reset. That is safe for the routers because candidates are
// immortal within a search and nothing escapes it — route.FromCandidate
// copies the winning chain into a fresh Path before the search returns.
// Anything that must outlive Reset (results, diagnostics) must copy, never
// retain *Candidate pointers.
//
// The zero value is ready to use. An Arena is not goroutine-safe; each
// concurrent search owns its own (core.Scratch pools them).
type Arena struct {
	blocks [][]Candidate
	cur    int // index of the block New is filling
	used   int // slots handed out from blocks[cur]
}

// New copies c into the next free slot and returns the slot's pointer.
func (a *Arena) New(c Candidate) *Candidate {
	if a.cur < len(a.blocks) && a.used == len(a.blocks[a.cur]) {
		a.cur++
		a.used = 0
	}
	if a.cur == len(a.blocks) {
		// arena.grow fires on slab growth only — the rare branch — so an
		// armed failpoint injects mid-search without taxing every New.
		faultpoint.Must("arena.grow")
		a.blocks = append(a.blocks, make([]Candidate, arenaBlock))
	}
	p := &a.blocks[a.cur][a.used]
	a.used++
	*p = c
	return p
}

// Len returns the number of live candidates handed out since the last
// Reset (diagnostics).
func (a *Arena) Len() int {
	return a.cur*arenaBlock + a.used
}

// Reset recycles every candidate at once: subsequent News reuse the slabs
// from the start. All previously returned pointers become invalid (their
// memory will be rewritten); see the lifetime rule above.
func (a *Arena) Reset() {
	a.cur, a.used = 0, 0
}

// frontier is one node's Pareto set in struct-of-arrays layout: the hot
// dominance keys (c, d, and slack in tri mode) live in parallel float64
// slices scanned linearly or binary-searched per insertion, while the
// candidate pointers are touched only to mark kills or reconstruct paths.
// Keeping the keys out of the 64-byte Candidate structs means an Insert
// walks densely packed floats instead of chasing one pointer per compare.
type frontier struct {
	c, d  []float64
	slack []float64 // maintained in tri mode only
	cand  []*Candidate
}

// reset empties the frontier, keeping capacity.
func (fr *frontier) reset() {
	fr.c, fr.d = fr.c[:0], fr.d[:0]
	fr.slack, fr.cand = fr.slack[:0], fr.cand[:0]
}

// replace splices c over entries [start, end) of the sorted 2-D frontier,
// mirroring the splice across every parallel slice.
func (fr *frontier) replace(start, end int, c *Candidate) {
	n := len(fr.c)
	if end == start {
		fr.c = append(fr.c, 0)
		copy(fr.c[start+1:], fr.c[start:n])
		fr.c[start] = c.C
		fr.d = append(fr.d, 0)
		copy(fr.d[start+1:], fr.d[start:n])
		fr.d[start] = c.D
		fr.cand = append(fr.cand, nil)
		copy(fr.cand[start+1:], fr.cand[start:n])
		fr.cand[start] = c
		return
	}
	m := n - (end - start) + 1
	fr.c[start] = c.C
	copy(fr.c[start+1:], fr.c[end:n])
	fr.c = fr.c[:m]
	fr.d[start] = c.D
	copy(fr.d[start+1:], fr.d[end:n])
	fr.d = fr.d[:m]
	fr.cand[start] = c
	copy(fr.cand[start+1:], fr.cand[end:n])
	fr.cand = fr.cand[:m]
}

// Store keeps, for every grid node, the Pareto frontier of live candidates
// seen in the current pruning epoch. An entry (c1,d1) is inferior to
// (c2,d2) when c1 >= c2 and d1 >= d2; inferior candidates are pruned.
//
// RBP and GALS must only compare candidates with the same register count /
// wavefront latency (Section III), so the store supports O(1) epoch resets:
// NextEpoch invalidates all frontiers lazily via a per-node stamp.
type Store struct {
	nodes []frontier
	stamp []int32
	cur   int32

	// tri switches to three-dimensional dominance (c, d, and Slack):
	// a candidate is inferior only if its slack is also no better. Used by
	// the max-slack extension, where a worse-delay candidate may still be
	// worth keeping for its higher sink slack.
	tri bool

	inserted int // live insertions since construction (diagnostics)
	rejected int // dominated-on-arrival candidates
	killed   int // previously-inserted candidates pruned by newcomers
}

// NewStore returns a store covering nodes [0, n).
func NewStore(n int) *Store {
	return &Store{
		nodes: make([]frontier, n),
		stamp: make([]int32, n),
		cur:   1,
	}
}

// NewTriStore returns a store covering nodes [0, n) that prunes on
// (c, d, slack) — dominance requires c <= c', d <= d', AND slack >= slack'.
func NewTriStore(n int) *Store {
	s := NewStore(n)
	s.tri = true
	return s
}

// NextEpoch starts a new pruning epoch: every node's frontier becomes
// logically empty. Existing candidates are untouched (they belong to queues
// of earlier waves, which are already drained when RBP/GALS call this).
func (s *Store) NextEpoch() { s.cur++ }

// Reuse prepares the store for a fresh search covering nodes [0, n) in the
// given dominance mode, growing the node arrays as needed and invalidating
// every frontier with an epoch bump instead of reallocating. The diagnostic
// counters restart from zero. Pooled stores (core.Scratch) call this
// between searches so frontier list capacity is retained across the
// thousands of searches of a batch.
func (s *Store) Reuse(n int, tri bool) {
	if len(s.stamp) < n {
		s.nodes = append(s.nodes, make([]frontier, n-len(s.nodes))...)
		s.stamp = append(s.stamp, make([]int32, n-len(s.stamp))...)
	}
	s.tri = tri
	// Guard the epoch counter against wrap on very long-lived pooled
	// stores: restart stamps from zero well before overflow.
	if s.cur >= math.MaxInt32-(1<<20) {
		clear(s.stamp)
		s.cur = 0
	}
	s.cur++
	s.inserted, s.rejected, s.killed = 0, 0, 0
}

// node returns the current-epoch frontier for node v, resetting it lazily.
func (s *Store) node(v int32) *frontier {
	fr := &s.nodes[v]
	if s.stamp[v] != s.cur {
		s.stamp[v] = s.cur
		fr.reset()
	}
	return fr
}

// Insert attempts to add c to its node's frontier. It returns false (and
// leaves the frontier unchanged) if c is dominated by an existing live
// candidate; otherwise it inserts c, marks any now-dominated candidates
// Dead, and returns true.
func (s *Store) Insert(c *Candidate) bool {
	if s.tri {
		return s.insertTri(c)
	}
	fr := s.node(c.Node)
	cs, ds := fr.c, fr.d

	// Upper bound: first index with C strictly greater than c.C. The
	// frontier is sorted by C ascending with D strictly descending, so the
	// predecessor (if any) has C <= c.C and the smallest D among those.
	lo, hi := 0, len(cs)
	for lo < hi {
		mid := (lo + hi) / 2
		if cs[mid] <= c.C {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if pos > 0 && ds[pos-1] <= c.D {
		s.rejected++
		return false // dominated: smaller-or-equal cap, smaller-or-equal delay
	}

	// Kill equal-capacitance predecessors: they have C == c.C and (since we
	// were not rejected) D > c.D, so c dominates them.
	start := pos
	for start > 0 && cs[start-1] == c.C {
		fr.cand[start-1].Dead = true
		s.killed++
		start--
	}

	// Kill successors dominated by c: they have C >= c.C; dominated iff
	// D >= c.D. D is descending, so they form a prefix of the suffix at pos.
	end := pos
	for end < len(ds) && ds[end] >= c.D {
		fr.cand[end].Dead = true
		s.killed++
		end++
	}

	fr.replace(start, end, c)
	s.inserted++
	return true
}

// insertTri is the three-key variant of Insert: the frontier is kept
// unsorted and scanned linearly (frontiers stay small in practice).
// Dominance: existing (c,d,slack) kills newcomer (c',d',slack') iff
// c <= c', d <= d' and slack >= slack'.
func (s *Store) insertTri(c *Candidate) bool {
	fr := s.node(c.Node)
	for i := range fr.c {
		if fr.c[i] <= c.C && fr.d[i] <= c.D && fr.slack[i] >= c.Slack {
			s.rejected++
			return false
		}
	}
	out := 0
	for i := range fr.c {
		if c.C <= fr.c[i] && c.D <= fr.d[i] && c.Slack >= fr.slack[i] {
			fr.cand[i].Dead = true
			s.killed++
			continue
		}
		fr.c[out], fr.d[out] = fr.c[i], fr.d[i]
		fr.slack[out], fr.cand[out] = fr.slack[i], fr.cand[i]
		out++
	}
	fr.c = append(fr.c[:out], c.C)
	fr.d = append(fr.d[:out], c.D)
	fr.slack = append(fr.slack[:out], c.Slack)
	fr.cand = append(fr.cand[:out], c)
	s.inserted++
	return true
}

// Frontier returns a copy of the current-epoch Pareto frontier at node v,
// for inspection by tests and diagnostics.
//
// Side effect: like every frontier accessor it goes through list(), which
// lazily applies any pending epoch reset — if v has not been touched since
// the last NextEpoch/Reuse, its stale frontier is truncated here, not at
// epoch-bump time. Reading a frontier therefore commits the reset for that
// node; candidates from earlier epochs are never returned.
func (s *Store) Frontier(v int32) []*Candidate {
	return append([]*Candidate(nil), s.node(v).cand...)
}

// Stats returns (inserted, rejected, killed) counters.
func (s *Store) Stats() (inserted, rejected, killed int) {
	return s.inserted, s.rejected, s.killed
}

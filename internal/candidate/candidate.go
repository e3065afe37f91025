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
	"math/bits"
	"slices"

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
//
// The struct holds no pointer: Parent names its arena slot by Ref, so the
// slabs, pools and queues of a search are memory the garbage collector
// never scans. The fields are ordered so the struct packs to 48 bytes.
type Candidate struct {
	C float64 // input capacitance seen at Node, pF
	D float64 // Elmore delay from Node to the most recent sync element (or sink), ps
	L float64 // latency from the most recent sync element back to the sink, ps
	// Slack is the timing slack of the sink-adjacent segment, fixed when
	// the first register closes that segment (RBP's max-slack extension).
	Slack float64

	Node   int32 // grid node ID
	Regs   int32 // clocked elements inserted so far (RBP wave index)
	Parent Ref   // the downstream candidate this one extends; 0 for the sink's
	Gate   Gate  // element inserted at Node when this candidate was created
	Z      uint8 // clock domain; GALS: 1 once the MCFIFO is on the path
	Dead   bool  // pruned while still queued
}

// Ref names a candidate by its arena slot: 1 + the slot's index, so the
// zero Ref means none. Arena.At resolves it.
type Ref int32

// arenaBlock is the slab size of an Arena: enough to amortize slab
// allocation across thousands of expansions while keeping a mostly-idle
// pooled arena under a few hundred KiB. A power of two, so At splits a
// slot index with a shift and a mask.
const (
	arenaShift = 12
	arenaBlock = 1 << arenaShift
)

// Arena is a slab allocator for Candidates. The search loops build each
// candidate on the stack and take a slot only for one they keep: it passed
// the bound tests and the dominance test (Store.Insert copies it in), so a
// search holds exactly one slot per queued candidate. That is still by far
// the dominant allocation of a run, so New hands out slots from chunked
// blocks instead of the heap, and Reset recycles every candidate of the
// finished search in O(1).
//
// New returns a slot's Ref, and everything that keeps a candidate (the
// stores' frontiers, the search queues, Parent) keeps its Ref. At turns
// one into a pointer; slabs never move, so that pointer stays valid while
// later News grow the arena.
//
// Lifetime rule: no Ref, and no pointer from At, outlives its arena's next
// Reset. That is safe for the routers because candidates are immortal
// within a search and nothing escapes it — route.FromCandidate copies the
// winning chain into a fresh Path before the search returns. Anything that
// must outlive Reset (results, diagnostics) must copy.
//
// The zero value is ready to use. An Arena is not goroutine-safe; each
// concurrent search owns its own (core.Scratch pools them).
type Arena struct {
	blocks []*[arenaBlock]Candidate
	cur    int // index of the block New is filling
	used   int // slots handed out from blocks[cur]
}

// New copies c into the next free slot and returns the slot's Ref.
func (a *Arena) New(c Candidate) Ref {
	if a.used == arenaBlock {
		a.cur++
		a.used = 0
	}
	if a.cur == len(a.blocks) {
		// arena.grow fires on slab growth only — the rare branch — so an
		// armed failpoint injects mid-search without taxing every New.
		faultpoint.Must("arena.grow")
		a.blocks = append(a.blocks, new([arenaBlock]Candidate))
	}
	a.blocks[a.cur][a.used] = c
	a.used++
	return Ref(a.cur<<arenaShift + a.used)
}

// At returns the candidate r names. r must be a Ref New returned since the
// last Reset. Its inline cost (20) keeps it inlined even into functions too
// large for the compiler's full budget; make inline-check holds it there.
func (a *Arena) At(r Ref) *Candidate {
	i := r - 1
	return &a.blocks[i>>arenaShift][i&(arenaBlock-1)]
}

// Walk calls fn for every candidate from r back to the initial sink
// candidate, in upstream-to-downstream order (r's first).
func (a *Arena) Walk(r Ref, fn func(*Candidate)) {
	for r != 0 {
		c := a.At(r)
		fn(c)
		r = c.Parent
	}
}

// Len returns the number of live candidates handed out since the last
// Reset (diagnostics).
func (a *Arena) Len() int {
	return a.cur*arenaBlock + a.used
}

// Reset recycles every candidate at once: subsequent News reuse the slabs
// from the start. Every Ref handed out before becomes invalid (its slot
// will be rewritten); see the lifetime rule above.
func (a *Arena) Reset() {
	a.cur, a.used = 0, 0
}

// key is one frontier entry's 2-D dominance keys, side by side so a
// binary search on c reads its d from the same cache line.
type key struct{ c, d float64 }

// run is one node's frontier: entries [off, off+n) of the store's pools,
// inside a slot of room entries. stamp is the epoch the entries belong to.
type run struct {
	off, n, room, stamp int32
}

// minRoom is the room of a node's first slot; a full run moves to a slot
// of twice its room. Rooms are powers of two from minRoom up, so slot
// sizes fall into a few classes and a moved-out slot fits any later run
// of its class.
const (
	minShift = 2
	minRoom  = 1 << minShift
)

// Store keeps, for every grid node, the Pareto frontier of live candidates
// seen in the current pruning epoch. An entry (c1,d1) is inferior to
// (c2,d2) when c1 >= c2 and d1 >= d2; inferior candidates are pruned.
//
// RBP and GALS must only compare candidates with the same register count /
// wavefront latency (Section III), so the store supports O(1) epoch resets:
// NextEpoch invalidates all frontiers lazily via a per-node stamp.
//
// Frontiers are struct-of-arrays runs over store-wide pools: the hot
// dominance keys (c and d in keys, slack in tri mode) are scanned or
// binary-searched per insertion, while the candidate Refs in cands are
// resolved only to mark kills or reconstruct paths. Keeping the keys out of
// the 48-byte Candidate structs means an Insert walks densely packed floats
// instead of resolving one candidate per compare. A node holds a 16-byte
// run header and no memory of its own, so what a store allocates depends on
// how large one search's frontiers grow, not on which node IDs they sit at.
// No pool holds a pointer, so the collector never scans one.
type Store struct {
	runs []run
	cur  int32 // the current epoch
	base int32 // the epoch Reuse opened: an older stamp holds no slot

	keys  []key
	slack []float64 // maintained in tri mode only
	cands []Ref
	// free[k] lists the offsets of moved-out slots of room minRoom<<k,
	// recycled by the next run of this search that needs one; k runs up
	// to the largest power of two an int32 room holds.
	free [31 - minShift][]int32

	// tri switches to three-dimensional dominance (c, d, and Slack):
	// a candidate is inferior only if its slack is also no better. Used by
	// the max-slack extension, where a worse-delay candidate may still be
	// worth keeping for its higher sink slack.
	tri bool

	inserted int // kept insertions since the last Reuse (diagnostics)
	rejected int // dominated-on-arrival candidates
	killed   int // previously-inserted candidates pruned by newcomers
}

// NewStore returns a store covering nodes [0, n).
func NewStore(n int) *Store {
	return &Store{runs: make([]run, n), cur: 1, base: 1}
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
// Each run keeps its slot, so a node that grew in an earlier wave of the
// search does not grow again.
func (s *Store) NextEpoch() { s.cur++ }

// Reuse prepares the store for a fresh search covering nodes [0, n) in the
// given dominance mode, growing the run headers as needed and invalidating
// every frontier with an epoch bump instead of reallocating. It cuts the
// pools and free lists back to empty, keeping their capacity, so every
// slot is handed out anew: the store allocates again only when a search
// outgrows every search it has served. The diagnostic counters restart
// from zero. Pooled stores (core.Scratch) call this between searches.
func (s *Store) Reuse(n int, tri bool) {
	if len(s.runs) < n {
		s.runs = append(s.runs, make([]run, n-len(s.runs))...)
	}
	s.tri = tri
	s.keys, s.slack, s.cands = s.keys[:0], s.slack[:0], s.cands[:0]
	for k := range s.free {
		s.free[k] = s.free[k][:0]
	}
	// Guard the epoch counter against wrap on very long-lived pooled
	// stores: restart stamps from zero well before overflow.
	if s.cur >= math.MaxInt32-(1<<20) {
		clear(s.runs)
		s.cur = 0
	}
	s.cur++
	s.base = s.cur
	s.inserted, s.rejected, s.killed = 0, 0, 0
}

// node returns node v's current-epoch run, emptying it lazily. A run last
// used by an earlier search also loses its slot: Reuse handed the pools
// out anew.
func (s *Store) node(v int32) *run {
	r := &s.runs[v]
	if r.stamp != s.cur {
		if r.stamp < s.base {
			r.off, r.room = 0, 0
		}
		r.n, r.stamp = 0, s.cur
	}
	return r
}

// move gives the full run r a slot of twice its room (minRoom for a run
// without one), copies its entries over and frees the old slot.
func (s *Store) move(r *run) {
	room := max(2*r.room, minRoom)
	off := s.take(room)
	from, to, n := int(r.off), int(off), int(r.n)
	copy(s.keys[to:to+n], s.keys[from:from+n])
	copy(s.cands[to:to+n], s.cands[from:from+n])
	if s.tri {
		copy(s.slack[to:to+n], s.slack[from:from+n])
	}
	if r.room > 0 {
		k := roomClass(r.room)
		s.free[k] = append(s.free[k], r.off)
	}
	r.off, r.room = off, room
}

// take returns the offset of a free slot of room entries: a moved-out slot
// of that room if the search has one, else fresh entries at the pools' end.
// A fresh store's first take sizes its pools for one first slot per node
// in one allocation each, instead of doubling them up from empty.
func (s *Store) take(room int32) int32 {
	k := roomClass(room)
	if f := s.free[k]; len(f) > 0 {
		s.free[k] = f[:len(f)-1]
		return f[len(f)-1]
	}
	if cap(s.keys) == 0 {
		n := minRoom * len(s.runs)
		s.keys, s.cands = make([]key, 0, n), make([]Ref, 0, n)
	}
	off := int32(len(s.keys))
	s.keys = extend(s.keys, int(room))
	s.cands = extend(s.cands, int(room))
	if s.tri {
		s.slack = extend(s.slack, int(room))
	}
	return off
}

// roomClass is the free-list index of a slot of room entries.
func roomClass(room int32) int {
	return bits.TrailingZeros32(uint32(room)) - minShift
}

// extend lengthens p by n entries, growing its capacity as append does.
// The new entries are not cleared: a slot's entries past its run's length
// are never read.
func extend[T any](p []T, n int) []T {
	return slices.Grow(p, n)[:len(p)+n]
}

// Insert offers c to its node's frontier. The dominance test runs on c's
// value, before c costs an arena slot: if an existing live candidate
// dominates c, Insert returns 0 and leaves the frontier and the arena
// unchanged. Otherwise it copies *c into the next slot of a, marks every
// now-dominated candidate Dead, and returns the copy's Ref, which the
// frontier now holds. Insert never retains c itself, so callers may build
// it on the stack or pass a candidate of a's own.
func (s *Store) Insert(a *Arena, c *Candidate) Ref {
	if s.tri {
		return s.insertTri(a, c)
	}
	r := s.node(c.Node)
	off, n := int(r.off), int(r.n)
	ks, cs := s.keys[off:off+n], s.cands[off:off+n]

	// Upper bound: first index with C strictly greater than c.C. The
	// frontier is sorted by C ascending with D strictly descending, so the
	// predecessor (if any) has C <= c.C and the smallest D among those.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if ks[mid].c <= c.C {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if pos > 0 && ks[pos-1].d <= c.D {
		s.rejected++
		return 0 // dominated: smaller-or-equal cap, smaller-or-equal delay
	}

	// Kill equal-capacitance predecessors: they have C == c.C and (since we
	// were not rejected) D > c.D, so c dominates them.
	start := pos
	for start > 0 && ks[start-1].c == c.C {
		a.At(cs[start-1]).Dead = true
		s.killed++
		start--
	}

	// Kill successors dominated by c: they have C >= c.C; dominated iff
	// D >= c.D. D is descending, so they form a prefix of the suffix at pos.
	end := pos
	for end < n && ks[end].d >= c.D {
		a.At(cs[end]).Dead = true
		s.killed++
		end++
	}

	ref := a.New(*c)
	s.splice(r, start, end, key{c.C, c.D}, ref)
	s.inserted++
	return ref
}

// splice puts (k, ref) over entries [start, end) of r's sorted 2-D
// frontier, mirroring the splice across keys and cands; a run that gains
// an entry moves first if its slot is full.
func (s *Store) splice(r *run, start, end int, k key, ref Ref) {
	n := int(r.n)
	if end == start {
		if r.n == r.room {
			s.move(r)
		}
		off := int(r.off)
		ks, cs := s.keys[off:off+n+1], s.cands[off:off+n+1]
		copy(ks[start+1:], ks[start:n])
		ks[start] = k
		copy(cs[start+1:], cs[start:n])
		cs[start] = ref
		r.n++
		return
	}
	off := int(r.off)
	ks, cs := s.keys[off:off+n], s.cands[off:off+n]
	ks[start] = k
	copy(ks[start+1:], ks[end:])
	cs[start] = ref
	copy(cs[start+1:], cs[end:])
	r.n = int32(n - (end - start) + 1)
}

// insertTri is the three-key variant of Insert: the frontier is kept
// unsorted and scanned linearly (frontiers stay small in practice).
// Dominance: existing (c,d,slack) kills newcomer (c',d',slack') iff
// c <= c', d <= d' and slack >= slack'.
func (s *Store) insertTri(a *Arena, c *Candidate) Ref {
	r := s.node(c.Node)
	off, n := int(r.off), int(r.n)
	ks, sl, cs := s.keys[off:off+n], s.slack[off:off+n], s.cands[off:off+n]
	for i := range ks {
		if ks[i].c <= c.C && ks[i].d <= c.D && sl[i] >= c.Slack {
			s.rejected++
			return 0
		}
	}
	out := 0
	for i := range ks {
		if c.C <= ks[i].c && c.D <= ks[i].d && c.Slack >= sl[i] {
			a.At(cs[i]).Dead = true
			s.killed++
			continue
		}
		ks[out], sl[out], cs[out] = ks[i], sl[i], cs[i]
		out++
	}
	ref := a.New(*c)
	if r.n = int32(out); r.n == r.room {
		s.move(r)
	}
	i := int(r.off) + out
	s.keys[i], s.slack[i], s.cands[i] = key{c.C, c.D}, c.Slack, ref
	r.n++
	s.inserted++
	return ref
}

// Frontier returns the current-epoch Pareto frontier at node v, resolved
// through a, the arena the store's candidates live in, for inspection by
// tests and diagnostics.
//
// Side effect: like every frontier accessor it goes through node(), which
// lazily applies any pending epoch reset — if v has not been touched since
// the last NextEpoch/Reuse, its stale frontier is emptied here, not at
// epoch-bump time. Reading a frontier therefore commits the reset for that
// node; candidates from earlier epochs are never returned.
func (s *Store) Frontier(a *Arena, v int32) []*Candidate {
	r := s.node(v)
	out := make([]*Candidate, 0, r.n)
	for _, ref := range s.cands[r.off : r.off+r.n] {
		out = append(out, a.At(ref))
	}
	return out
}

// Stats returns (inserted, rejected, killed) counters.
func (s *Store) Stats() (inserted, rejected, killed int) {
	return s.inserted, s.rejected, s.killed
}

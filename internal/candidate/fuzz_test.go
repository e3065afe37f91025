package candidate

import "testing"

// fuzzPoint is one offered candidate's dominance keys.
type fuzzPoint struct{ c, d, slack float64 }

// covers reports whether q weakly dominates p: no worse in every key the
// store compares (c and d, plus slack in tri mode).
func (q fuzzPoint) covers(p fuzzPoint, tri bool) bool {
	return q.c <= p.c && q.d <= p.d && (!tri || q.slack >= p.slack)
}

// fuzzOffer is one offered point and what Insert returned for it.
type fuzzOffer struct {
	p    fuzzPoint
	got  Ref
	dead bool // the oracle's Dead flag for a kept point, from its epoch's end on
}

// fuzzStore runs byte-chosen searches on one store and checks it against
// a brute-force oracle per node and epoch.
type fuzzStore struct {
	t     *testing.T
	s     *Store
	ar    Arena
	tri   bool
	n     int           // nodes of the current search
	epoch [][]fuzzOffer // per node: the points offered in the current epoch
	done  []fuzzOffer   // kept points of the search's finished epochs
	slots map[Ref]bool

	kept, rejected, killed int // the search's counters, by the oracle
}

// reuse starts a search over n nodes in the given mode, as a pooled
// scratch does: the arena rewinds and the store is prepared with Reuse.
func (f *fuzzStore) reuse(n int, tri bool) {
	f.tri, f.n = tri, n
	f.s.Reuse(n, tri)
	f.ar.Reset()
	f.epoch = make([][]fuzzOffer, n)
	f.done, f.slots = nil, map[Ref]bool{}
	f.kept, f.rejected, f.killed = 0, 0, 0
}

// offer inserts p at node v and checks the decision: p is kept iff no
// earlier point offered to v in this epoch weakly dominates it (whatever
// dominated that earlier point, if it was rejected, is still live and
// dominates p too), and a kept point gets a fresh arena slot holding its
// value.
func (f *fuzzStore) offer(v int, p fuzzPoint) {
	// Rebuilt in place for every offer, as the kernels do on the stack.
	c := Candidate{C: p.c, D: p.d, Slack: p.slack, Node: int32(v), Gate: GateNone}
	got := f.s.Insert(&f.ar, &c)
	keep := true
	for _, q := range f.epoch[v] {
		if q.p.covers(p, f.tri) {
			keep = false
			break
		}
	}
	switch {
	case keep != (got != 0):
		f.t.Fatalf("node %d point %v: kept=%t, oracle says %t", v, p, got != 0, keep)
	case got == 0:
		f.rejected++
	case f.slots[got]:
		f.t.Fatalf("node %d point %v: Insert returned an arena slot it already handed out", v, p)
	case *f.ar.At(got) != c:
		got := f.ar.At(got)
		f.t.Fatalf("node %d: slot holds (%g, %g, %g) at node %d, offered %v", v, got.C, got.D, got.Slack, got.Node, p)
	default:
		f.slots[got] = true
		f.kept++
	}
	f.epoch[v] = append(f.epoch[v], fuzzOffer{p: p, got: got})
}

// endEpoch checks every node's frontier against its own oracle: a kept
// point is still in the frontier iff no later kept point of its node and
// epoch weakly dominates it, everything it evicted is Dead, and the
// frontier holds exactly the node's Pareto-minimal distinct offers, in
// strict Pareto order in 2-D mode.
func (f *fuzzStore) endEpoch() {
	for v, offers := range f.epoch {
		front := f.s.Frontier(&f.ar, int32(v))
		inFront := map[*Candidate]bool{}
		for _, c := range front {
			if c.Dead {
				f.t.Fatalf("node %d: dead candidate in frontier", v)
			}
			inFront[c] = true
		}
		kept, live := 0, 0
		for i, o := range offers {
			if o.got == 0 {
				continue
			}
			kept++
			for _, q := range offers[i+1:] {
				if q.got != 0 && q.p.covers(o.p, f.tri) {
					o.dead = true
					break
				}
			}
			if !o.dead {
				live++
			}
			if got := f.ar.At(o.got); inFront[got] == o.dead || got.Dead != o.dead {
				f.t.Fatalf("node %d point %d %v: in frontier %t, dead %t; oracle says dead=%t",
					v, i, o.p, inFront[got], got.Dead, o.dead)
			}
			f.done = append(f.done, o)
		}
		if len(front) != live {
			f.t.Fatalf("node %d: frontier holds %d candidates, oracle %d", v, len(front), live)
		}
		f.killed += kept - live

		minimal := map[fuzzPoint]bool{}
		for _, o := range offers {
			dominated := false
			for _, q := range offers {
				if q.p != o.p && q.p.covers(o.p, f.tri) {
					dominated = true
					break
				}
			}
			if !dominated {
				minimal[o.p] = true
			}
		}
		for _, c := range front {
			p := fuzzPoint{c.C, c.D, c.Slack}
			if !minimal[p] {
				f.t.Fatalf("node %d: frontier holds dominated %v", v, p)
			}
			delete(minimal, p)
		}
		if len(minimal) != 0 {
			f.t.Fatalf("node %d: frontier misses Pareto-minimal %v", v, minimal)
		}
		if !f.tri {
			for i := 1; i < len(front); i++ {
				if front[i].C <= front[i-1].C || front[i].D >= front[i-1].D {
					f.t.Fatalf("node %d: frontier not strictly Pareto ordered at %d", v, i)
				}
			}
		}
		f.epoch[v] = f.epoch[v][:0]
	}
}

// endSearch checks what the search left behind, before the next Reuse
// rewinds the arena: the arena holds one slot per kept point and nothing
// else, no later epoch touched a finished epoch's candidates, and the
// store's counters agree with the oracle's.
func (f *fuzzStore) endSearch() {
	f.endEpoch()
	if f.ar.Len() != f.kept {
		f.t.Fatalf("arena holds %d candidates, %d kept", f.ar.Len(), f.kept)
	}
	for _, o := range f.done {
		if got := f.ar.At(o.got); got.Dead != o.dead || got.C != o.p.c || got.D != o.p.d || got.Slack != o.p.slack {
			f.t.Fatalf("point %v: a later epoch changed its candidate to (%g, %g, %g) dead=%t",
				o.p, got.C, got.D, got.Slack, got.Dead)
		}
	}
	if ins, rej, kil := f.s.Stats(); ins != f.kept || rej != f.rejected || kil != f.killed {
		f.t.Fatalf("Stats = (%d, %d, %d), want (%d, %d, %d)", ins, rej, kil, f.kept, f.rejected, f.killed)
	}
}

// FuzzStoreInsert drives one store through byte-chosen searches, as a
// pooled scratch's store serves one search after another, and checks
// every decision and every node's frontier against brute-force oracles.
// The first byte's low bit selects 2-D (c, d) or tri-mode (c, d, slack)
// dominance and its next two bits the node count (1 to 4). Each later
// step is one byte b: b >= 0xF8 ends the search and starts the next with
// Reuse over 1 + b&3 nodes in tri mode iff b&4 is set; b >= 0xF0 starts a
// new epoch; any other b offers a point to node b mod the node count,
// its coordinates taken from the next two bytes (three in tri mode).
//
// The nodes' runs share the store's pools, so a run that grows or moves
// over a neighbour's entries fails that neighbour's oracle, and a run
// that keeps a slot across epochs or searches must still read empty.
func FuzzStoreInsert(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 9, 1, 8, 2, 7, 3, 6, 4})
	f.Add([]byte{1, 1, 2, 3, 2, 1, 4, 0, 0, 0})
	f.Add([]byte{1, 3, 3, 3, 3, 3, 3, 1, 1, 1, 5, 5, 7})
	// Three nodes grow together, node 0 past 8 entries on a staircase
	// (moving from room 4 to 8 to 16) while nodes 1 and 2 grow beside it.
	stair := []byte{4}
	for i := byte(0); i < 10; i++ {
		stair = append(stair, 0, i, 15-i, 1, i, 12-i/2, 2, 15-i, i)
	}
	f.Add(stair)
	// Nodes 0 and 1 grow past 8 entries, then nodes 2 and 3 grow into the
	// slots the first two moved out of.
	reuse := []byte{6}
	for _, v := range []byte{0, 2} {
		for i := byte(0); i < 10; i++ {
			reuse = append(reuse, v, i, 15-i, v+1, 15-i, i)
		}
	}
	f.Add(reuse)
	// The staircase across an epoch, then a Reuse into tri mode over four
	// nodes, where node 3 grows to 10 entries and a last offer is rejected
	// only by the slack of an entry its run moved.
	grow := append([]byte{}, stair...)
	grow = append(grow, 0xF0)
	grow = append(grow, stair[1:]...)
	grow = append(grow, 0xFF)
	for i := byte(0); i < 8; i++ {
		grow = append(grow, 3, i, 7-i, i, 1, i%3, i%5, 7-i%4)
	}
	grow = append(grow, 3, 1, 7, 7, 3, 2, 6, 7, 3, 1, 6, 1)
	grow = append(grow, 0xF2, 3, 1, 1, 1, 0xF8, 0, 5, 5)
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// A fresh store prepared by Reuse, as core.Scratch makes its own.
		fs := &fuzzStore{t: t, s: NewStore(0)}
		fs.reuse(1+int(data[0]>>1&3), data[0]&1 == 1)
		for i, offers := 1, 0; i < len(data) && offers < 200; i++ {
			switch b := data[i]; {
			case b >= 0xF8:
				fs.endSearch()
				fs.reuse(1+int(b&3), b&4 != 0)
			case b >= 0xF0:
				fs.endEpoch()
				fs.s.NextEpoch()
			case !fs.tri && i+2 < len(data):
				fs.offer(int(b)%fs.n, fuzzPoint{c: float64(data[i+1] % 16), d: float64(data[i+2] % 16)})
				i, offers = i+2, offers+1
			case fs.tri && i+3 < len(data):
				fs.offer(int(b)%fs.n, fuzzPoint{float64(data[i+1] % 8), float64(data[i+2] % 8), float64(data[i+3] % 8)})
				i, offers = i+3, offers+1
			default:
				i = len(data) // a point cut short ends the input
			}
		}
		fs.endSearch()
	})
}

package candidate

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cand(node int32, c, d float64) *Candidate {
	return &Candidate{Node: node, C: c, D: d, Gate: GateNone}
}

func TestGateIsClocked(t *testing.T) {
	if GateNone.IsClocked() || Gate(0).IsClocked() || Gate(3).IsClocked() {
		t.Error("wire/buffer gates must not be clocked")
	}
	if !GateRegister.IsClocked() || !GateFIFO.IsClocked() {
		t.Error("register and FIFO must be clocked")
	}
}

func TestInsertKeepsNonDominated(t *testing.T) {
	s, ar := NewStore(4), new(Arena)
	a := s.Insert(ar, cand(1, 2.0, 10.0))
	b := s.Insert(ar, cand(1, 1.0, 20.0)) // less cap, more delay: incomparable with a
	if a == 0 || b == 0 {
		t.Fatal("both incomparable candidates should insert")
	}
	f := s.Frontier(ar, 1)
	if len(f) != 2 {
		t.Fatalf("frontier size = %d, want 2", len(f))
	}
	if f[0].C > f[1].C {
		t.Error("frontier must be sorted by capacitance")
	}
	if ar.At(a).Dead || ar.At(b).Dead {
		t.Error("nothing should be dead")
	}
}

func TestInsertRejectsDominated(t *testing.T) {
	s, ar := NewStore(4), new(Arena)
	s.Insert(ar, cand(2, 1.0, 10.0))
	if s.Insert(ar, cand(2, 1.5, 11.0)) != 0 {
		t.Error("strictly dominated candidate must be rejected")
	}
	if s.Insert(ar, cand(2, 1.0, 10.0)) != 0 {
		t.Error("exact duplicate must be rejected")
	}
	if s.Insert(ar, cand(2, 1.0, 12.0)) != 0 {
		t.Error("equal cap, worse delay must be rejected")
	}
	if s.Insert(ar, cand(2, 1.2, 10.0)) != 0 {
		t.Error("worse cap, equal delay must be rejected")
	}
	if len(s.Frontier(ar, 2)) != 1 {
		t.Error("frontier should still hold one candidate")
	}
	if ar.Len() != 1 {
		t.Errorf("arena holds %d candidates, want only the kept one", ar.Len())
	}
}

func TestInsertKillsDominatedExisting(t *testing.T) {
	s, ar := NewStore(4), new(Arena)
	a := s.Insert(ar, cand(3, 2.0, 10.0))
	b := s.Insert(ar, cand(3, 3.0, 8.0))
	// c dominates both.
	c := s.Insert(ar, cand(3, 1.5, 7.0))
	if c == 0 {
		t.Fatal("dominating candidate must insert")
	}
	if !ar.At(a).Dead || !ar.At(b).Dead {
		t.Error("dominated candidates must be marked Dead")
	}
	f := s.Frontier(ar, 3)
	if len(f) != 1 || f[0] != ar.At(c) {
		t.Errorf("frontier = %v, want just the dominator", f)
	}
}

func TestInsertKillsEqualCapPredecessor(t *testing.T) {
	s, ar := NewStore(2), new(Arena)
	a := s.Insert(ar, cand(0, 1.0, 10.0))
	b := s.Insert(ar, cand(0, 1.0, 5.0)) // same cap, better delay
	if b == 0 {
		t.Fatal("better-delay candidate must insert")
	}
	if !ar.At(a).Dead {
		t.Error("equal-cap worse-delay predecessor must die")
	}
	if f := s.Frontier(ar, 0); len(f) != 1 || f[0] != ar.At(b) {
		t.Errorf("frontier = %v", f)
	}
}

func TestInsertMiddleKeepsOrder(t *testing.T) {
	s, ar := NewStore(1), new(Arena)
	s.Insert(ar, cand(0, 1.0, 30.0))
	s.Insert(ar, cand(0, 3.0, 10.0))
	if s.Insert(ar, cand(0, 2.0, 20.0)) == 0 {
		t.Fatal("incomparable middle candidate must insert")
	}
	f := s.Frontier(ar, 0)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d, want 3", len(f))
	}
	for i := 1; i < len(f); i++ {
		if f[i].C <= f[i-1].C || f[i].D >= f[i-1].D {
			t.Fatalf("frontier not strictly Pareto-ordered: %v", f)
		}
	}
}

func TestNextEpochClearsFrontiers(t *testing.T) {
	s, ar := NewStore(2), new(Arena)
	a := s.Insert(ar, cand(0, 1.0, 1.0))
	s.NextEpoch()
	if len(s.Frontier(ar, 0)) != 0 {
		t.Error("frontier must be empty after NextEpoch")
	}
	// The old candidate must NOT influence the new epoch.
	// b would be dominated by a within one epoch.
	if s.Insert(ar, cand(0, 2.0, 2.0)) == 0 {
		t.Error("new-epoch candidate must not be pruned by old epochs")
	}
	if ar.At(a).Dead {
		t.Error("old-epoch candidate must not be killed by new epochs")
	}
}

func TestStatsCounters(t *testing.T) {
	s, ar := NewStore(1), new(Arena)
	s.Insert(ar, cand(0, 1, 10))
	s.Insert(ar, cand(0, 2, 20))  // rejected
	s.Insert(ar, cand(0, 0.5, 5)) // kills first
	ins, rej, kil := s.Stats()
	if ins != 2 || rej != 1 || kil != 1 {
		t.Errorf("stats = %d,%d,%d want 2,1,1", ins, rej, kil)
	}
}

// brute-force Pareto frontier for cross-checking
func bruteFrontier(pts [][2]float64) map[[2]float64]bool {
	out := make(map[[2]float64]bool)
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			// q dominates p if q.c <= p.c && q.d <= p.d and not equal;
			// among exact duplicates only the first-inserted survives,
			// which the map collapses anyway.
			if q[0] <= p[0] && q[1] <= p[1] && (q[0] < p[0] || q[1] < p[1]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[p] = true
		}
	}
	return out
}

func TestStoreMatchesBruteForcePareto(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		n := int(nQ%40) + 1
		rng := rand.New(rand.NewSource(seed))
		s, ar := NewStore(1), new(Arena)
		pts := make([][2]float64, 0, n)
		for i := 0; i < n; i++ {
			// Small integer coordinates force plenty of ties.
			p := [2]float64{float64(rng.Intn(8)), float64(rng.Intn(8))}
			pts = append(pts, p)
			s.Insert(ar, cand(0, p[0], p[1]))
		}
		want := bruteFrontier(pts)
		got := s.Frontier(ar, 0)
		if len(got) != len(want) {
			return false
		}
		for _, c := range got {
			if !want[[2]float64{c.C, c.D}] {
				return false
			}
		}
		// Frontier ordering invariant.
		for i := 1; i < len(got); i++ {
			if got[i].C <= got[i-1].C || got[i].D >= got[i-1].D {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Dead flags must be consistent: everything still in the frontier is alive,
// and every candidate an insertion returned but is no longer in the
// frontier is dead.
func TestDeadFlagConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, ar := NewStore(1), new(Arena)
		var accepted []Ref
		for i := 0; i < 60; i++ {
			if c := s.Insert(ar, cand(0, float64(rng.Intn(10)), float64(rng.Intn(10)))); c != 0 {
				accepted = append(accepted, c)
			}
		}
		inFrontier := make(map[*Candidate]bool)
		for _, c := range s.Frontier(ar, 0) {
			if c.Dead {
				return false // live frontier entry marked dead
			}
			inFrontier[c] = true
		}
		for _, r := range accepted {
			if c := ar.At(r); !inFrontier[c] && !c.Dead {
				return false // evicted but not marked dead
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWalk(t *testing.T) {
	var a Arena
	root := a.New(Candidate{Node: 0, Gate: GateRegister})
	step1 := a.New(Candidate{Node: 1, Gate: GateNone, Parent: root})
	step2 := a.New(Candidate{Node: 2, Gate: GateNone, Parent: step1})
	gate := a.New(Candidate{Node: 2, Gate: Gate(0), Parent: step2}) // buffer at node 2
	step3 := a.New(Candidate{Node: 3, Gate: GateNone, Parent: gate})

	var order []int32
	a.Walk(step3, func(c *Candidate) { order = append(order, c.Node) })
	want := []int32{3, 2, 2, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("Walk visited %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Walk order = %v, want %v", order, want)
		}
	}
}

func triCand(node int32, c, d, slack float64) *Candidate {
	return &Candidate{Node: node, C: c, D: d, Slack: slack, Gate: GateNone}
}

func TestTriStoreKeepsSlackIncomparable(t *testing.T) {
	s, ar := NewTriStore(2), new(Arena)
	a := s.Insert(ar, triCand(0, 1.0, 10.0, 5.0))
	b := s.Insert(ar, triCand(0, 1.5, 12.0, 9.0)) // worse (c,d) but better slack: must survive
	if a == 0 || b == 0 {
		t.Fatal("both candidates should insert under 3-D dominance")
	}
	if ar.At(a).Dead || ar.At(b).Dead {
		t.Error("nothing should die")
	}
	// A 2-D store would have rejected b.
	s2 := NewStore(2)
	s2.Insert(ar, cand(0, 1.0, 10.0))
	if s2.Insert(ar, cand(0, 1.5, 12.0)) != 0 {
		t.Error("sanity: 2-D store should reject the dominated pair")
	}
}

func TestTriStoreRejectsAndKills(t *testing.T) {
	s, ar := NewTriStore(1), new(Arena)
	a := s.Insert(ar, triCand(0, 1.0, 10.0, 5.0))
	if s.Insert(ar, triCand(0, 1.2, 11.0, 4.0)) != 0 {
		t.Error("3-D dominated candidate must be rejected")
	}
	if s.Insert(ar, triCand(0, 1.0, 10.0, 5.0)) != 0 {
		t.Error("exact duplicate must be rejected")
	}
	if ar.Len() != 1 {
		t.Errorf("arena holds %d candidates, want only the kept one", ar.Len())
	}
	killer := s.Insert(ar, triCand(0, 0.5, 9.0, 6.0))
	if killer == 0 {
		t.Fatal("dominating candidate must insert")
	}
	if !ar.At(a).Dead {
		t.Error("3-D dominated existing candidate must die")
	}
	if f := s.Frontier(ar, 0); len(f) != 1 || f[0] != ar.At(killer) {
		t.Errorf("frontier = %v", f)
	}
}

func TestTriStoreMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		n := int(nQ%30) + 1
		rng := rand.New(rand.NewSource(seed))
		s, ar := NewTriStore(1), new(Arena)
		type pt struct{ c, d, sl float64 }
		var pts []pt
		for i := 0; i < n; i++ {
			p := pt{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5))}
			pts = append(pts, p)
			s.Insert(ar, triCand(0, p.c, p.d, p.sl))
		}
		dominated := func(p pt) bool {
			for _, q := range pts {
				if q != p && q.c <= p.c && q.d <= p.d && q.sl >= p.sl {
					return true
				}
			}
			return false
		}
		want := map[pt]bool{}
		for _, p := range pts {
			if !dominated(p) {
				want[p] = true
			}
		}
		got := s.Frontier(ar, 0)
		if len(got) != len(want) {
			return false
		}
		for _, c := range got {
			if !want[pt{c.C, c.D, c.Slack}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTriStoreEpochReset(t *testing.T) {
	s, ar := NewTriStore(1), new(Arena)
	s.Insert(ar, triCand(0, 1, 1, 9))
	s.NextEpoch()
	if s.Insert(ar, triCand(0, 2, 2, 1)) == 0 {
		t.Error("new epoch must not inherit old frontiers")
	}
}

// TestStoreAllocatesNothingAtUnseenNodes pins that a store's memory
// depends on how large a search's frontiers grow, not on their node IDs:
// once a store has served a search, Insert, NextEpoch and Reuse allocate
// nothing for a search of the same shape at node IDs it has never seen,
// in either dominance mode.
func TestStoreAllocatesNothingAtUnseenNodes(t *testing.T) {
	const nodes, span = 2048, 64
	s, ar := NewStore(0), new(Arena)
	// search offers, over three epochs, staircases of 1 to 20 entries at
	// nodes [lo, lo+span): every run moves from room 4 up to 32.
	search := func(lo int32, tri bool) {
		s.Reuse(nodes, tri)
		ar.Reset()
		for e := 0; e < 3; e++ {
			for v := int32(0); v < span; v++ {
				for i := 0; i <= int(v+int32(e))%20; i++ {
					// Built on the stack, as the kernels build theirs.
					c := Candidate{Node: lo + v, C: float64(i), D: float64(20 - i), Slack: float64(i), Gate: GateNone}
					s.Insert(ar, &c)
				}
			}
			s.NextEpoch()
		}
	}
	search(0, false)
	search(0, true)
	lo := int32(span)
	allocs := testing.AllocsPerRun(10, func() {
		search(lo, false)
		search(lo, true)
		lo += span
	})
	if allocs != 0 {
		t.Errorf("a grown store allocates %.0f/op at unseen nodes, want 0", allocs)
	}
}

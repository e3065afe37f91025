package candidate

import "testing"

// fuzzPoint is one offered candidate's dominance keys.
type fuzzPoint struct{ c, d, slack float64 }

// covers reports whether q weakly dominates p: no worse in every key the
// store compares (c and d, plus slack in tri mode).
func (q fuzzPoint) covers(p fuzzPoint, tri bool) bool {
	return q.c <= p.c && q.d <= p.d && (!tri || q.slack >= p.slack)
}

// FuzzStoreInsert offers byte-derived points to one node of a store and
// checks every decision against a brute-force Pareto oracle over the
// points offered. The first byte selects 2-D (c, d) or tri-mode
// (c, d, slack) dominance; the rest are the points' coordinates.
//
// The oracle: a point is kept iff no earlier offered point weakly
// dominates it (whatever dominated that earlier point, if it was
// rejected, is still live and dominates this one too), and a kept point
// is still in the final frontier iff no later kept point weakly dominates
// it. The final frontier must also hold exactly the Pareto-minimal
// distinct values offered. Alongside: the arena holds one slot per kept
// point and nothing else, each returned pointer is a distinct slot
// carrying the offered value, every evicted slot is Dead, and the
// store's counters agree.
func FuzzStoreInsert(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 9, 1, 8, 2, 7, 3, 6, 4})
	f.Add([]byte{1, 1, 2, 3, 2, 1, 4, 0, 0, 0})
	f.Add([]byte{1, 3, 3, 3, 3, 3, 3, 1, 1, 1, 5, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tri, dims := data[0]%2 == 1, 2
		s := NewStore(1)
		if tri {
			s, dims = NewTriStore(1), 3
		}
		var ar Arena
		var pts []fuzzPoint
		var got []*Candidate // Insert's result per offered point
		var offer Candidate  // rebuilt in place for every offer, as the kernels do on the stack
		for i := 1; i+dims <= len(data) && len(pts) < 80; i += dims {
			p := fuzzPoint{c: float64(data[i] % 16), d: float64(data[i+1] % 16)}
			if tri {
				p = fuzzPoint{float64(data[i] % 8), float64(data[i+1] % 8), float64(data[i+2] % 8)}
			}
			pts = append(pts, p)
			offer = Candidate{C: p.c, D: p.d, Slack: p.slack, Gate: GateNone}
			got = append(got, s.Insert(&ar, &offer))
		}

		kept := make([]bool, len(pts))
		slots := map[*Candidate]bool{}
		nKept := 0
		for i, p := range pts {
			kept[i] = true
			for _, q := range pts[:i] {
				if q.covers(p, tri) {
					kept[i] = false
					break
				}
			}
			switch c := got[i]; {
			case kept[i] != (c != nil):
				t.Fatalf("point %d %v: kept=%t, oracle says %t", i, p, c != nil, kept[i])
			case c == nil:
				continue
			case slots[c]:
				t.Fatalf("point %d: Insert returned an arena slot it already handed out", i)
			case c.C != p.c || c.D != p.d || c.Slack != p.slack:
				t.Fatalf("point %d: slot holds (%g, %g, %g), offered %v", i, c.C, c.D, c.Slack, p)
			}
			slots[got[i]] = true
			nKept++
		}
		if ar.Len() != nKept {
			t.Fatalf("arena holds %d candidates, %d kept", ar.Len(), nKept)
		}

		front := s.Frontier(0)
		inFront := map[*Candidate]bool{}
		for _, c := range front {
			if c.Dead {
				t.Fatal("dead candidate in frontier")
			}
			inFront[c] = true
		}
		wantFront := 0
		for i, p := range pts {
			if !kept[i] {
				continue
			}
			live := true
			for j := i + 1; j < len(pts); j++ {
				if kept[j] && pts[j].covers(p, tri) {
					live = false
					break
				}
			}
			if live {
				wantFront++
			}
			if inFront[got[i]] != live || got[i].Dead == live {
				t.Fatalf("point %d %v: in frontier %t, dead %t; oracle says live=%t",
					i, p, inFront[got[i]], got[i].Dead, live)
			}
		}
		if len(front) != wantFront {
			t.Fatalf("frontier holds %d candidates, oracle %d", len(front), wantFront)
		}

		// The frontier's values are the Pareto-minimal distinct offers.
		minimal := map[fuzzPoint]bool{}
		for _, p := range pts {
			dominated := false
			for _, q := range pts {
				if q != p && q.covers(p, tri) {
					dominated = true
					break
				}
			}
			if !dominated {
				minimal[p] = true
			}
		}
		for _, c := range front {
			p := fuzzPoint{c.C, c.D, c.Slack}
			if !minimal[p] {
				t.Fatalf("frontier holds dominated %v", p)
			}
			delete(minimal, p)
		}
		if len(minimal) != 0 {
			t.Fatalf("frontier misses Pareto-minimal %v", minimal)
		}
		if !tri {
			for i := 1; i < len(front); i++ {
				if front[i].C <= front[i-1].C || front[i].D >= front[i-1].D {
					t.Fatalf("frontier not strictly Pareto ordered at %d", i)
				}
			}
		}
		if ins, rej, kil := s.Stats(); ins != nKept || rej != len(pts)-nKept || kil != nKept-len(front) {
			t.Fatalf("Stats = (%d, %d, %d), want (%d, %d, %d)",
				ins, rej, kil, nKept, len(pts)-nKept, nKept-len(front))
		}
	})
}

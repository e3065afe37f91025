package candidate

import "testing"

func TestArenaNewCopiesAndChains(t *testing.T) {
	var a Arena
	sink := a.New(Candidate{Node: 7, Gate: GateRegister, C: 1.5, D: 2.5})
	ext := a.New(Candidate{Node: 8, Gate: GateNone, Parent: sink})
	if sink == 0 || ext == sink {
		t.Fatalf("New returned refs %d and %d, want two distinct non-zero refs", sink, ext)
	}
	if c := a.At(sink); c.Node != 7 || c.Gate != GateRegister || c.C != 1.5 || c.D != 2.5 {
		t.Fatalf("sink fields not copied: %+v", c)
	}
	if a.At(ext).Parent != sink {
		t.Fatal("parent chain broken")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestArenaSlotsAreDistinct(t *testing.T) {
	var a Arena
	seen := make(map[*Candidate]bool)
	refs := make([]Ref, 0, 3*arenaBlock)
	for i := 0; i < 3*arenaBlock; i++ { // force several block crossings
		r := a.New(Candidate{Node: int32(i)})
		if c := a.At(r); seen[c] {
			t.Fatalf("slot %p (ref %d) handed out twice before Reset", c, r)
		} else {
			seen[c] = true
		}
		refs = append(refs, r)
	}
	if a.Len() != 3*arenaBlock {
		t.Fatalf("Len = %d, want %d", a.Len(), 3*arenaBlock)
	}
	// Every ref still names its own candidate across block growth.
	for i, r := range refs {
		if n := a.At(r).Node; n != int32(i) {
			t.Fatalf("ref %d resolves to node %d, want %d", r, n, i)
		}
	}
}

func TestArenaResetRecyclesSlabs(t *testing.T) {
	var a Arena
	first := a.At(a.New(Candidate{Node: 1}))
	for i := 0; i < arenaBlock+10; i++ {
		a.New(Candidate{Node: 2})
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", a.Len())
	}
	recycled := a.At(a.New(Candidate{Node: 3}))
	if recycled != first {
		t.Errorf("Reset did not recycle the first slab: got %p, want %p", recycled, first)
	}
	if recycled.Node != 3 {
		t.Errorf("recycled slot not overwritten: %+v", recycled)
	}
	// Steady state: a Reset/refill cycle must not allocate new slabs.
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		for i := 0; i < arenaBlock+10; i++ {
			a.New(Candidate{Node: int32(i)})
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset/New cycle allocates %.0f/op, want 0", allocs)
	}
}

func TestStoreReuseClearsAndGrows(t *testing.T) {
	s, ar := NewStore(0), new(Arena) // pooled stores start empty and grow on Reuse
	s.Reuse(2, false)
	if s.Insert(ar, &Candidate{Node: 1, C: 1, D: 1}) == 0 {
		t.Fatal("insert into reused store failed")
	}
	if ins, _, _ := s.Stats(); ins != 1 {
		t.Fatalf("inserted = %d, want 1", ins)
	}

	// A second Reuse must clear every frontier and the counters, grow the
	// node range, and may flip the dominance mode.
	s.Reuse(4, true)
	if len(s.Frontier(ar, 1)) != 0 {
		t.Error("Reuse must invalidate old frontiers")
	}
	if ins, rej, kil := s.Stats(); ins != 0 || rej != 0 || kil != 0 {
		t.Errorf("Reuse must reset counters, got (%d, %d, %d)", ins, rej, kil)
	}
	// Node 3 only exists after growth; tri-dominance keeps a worse-delay,
	// better-slack candidate that bi-dominance would reject.
	if s.Insert(ar, &Candidate{Node: 3, C: 1, D: 1, Slack: 5}) == 0 {
		t.Fatal("insert at grown node failed")
	}
	if s.Insert(ar, &Candidate{Node: 3, C: 1, D: 2, Slack: 9}) == 0 {
		t.Error("Reuse did not switch the store to tri-dominance")
	}

	// Shrinking reuse keeps the larger node range usable.
	s.Reuse(1, false)
	if s.Insert(ar, &Candidate{Node: 3, C: 1, D: 1}) == 0 {
		t.Error("store lost node coverage after smaller Reuse")
	}
}

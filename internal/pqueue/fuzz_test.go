package pqueue

import (
	"math"
	"sort"
	"testing"
)

// fuzzVal is a queued value: id makes the tie order total, tk is its packed
// tie key, drawn from four values so packed keys collide often.
type fuzzVal struct {
	id int
	tk uint64
}

type fuzzItem struct {
	key float64
	v   fuzzVal
}

// fuzzBefore is the heap's documented pop order: (key, TieKey, Tie).
func fuzzBefore(a, b fuzzItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.v.tk != b.v.tk {
		return a.v.tk < b.v.tk
	}
	return a.v.id < b.v.id
}

// fuzzKey draws a key: signed zeros, infinities, extreme and subnormal
// magnitudes, or one of 248 quarter steps, so equal keys recur.
func fuzzKey(b byte) float64 {
	special := [...]float64{
		math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	if int(b) < len(special) {
		return special[b]
	}
	return float64(int(b)-128) / 4
}

// FuzzHeapOrder drives Push, Pop, Peek, ExtractAllMin and Reset sequences
// against a sorted-slice oracle in the same (key, TieKey, Tie) order. It
// checks every returned item and key bit for bit (so -0 and +0 come back as
// pushed), Len after every step, and the rebase count: a push rebases
// exactly when its key is below the floor, the key of the last Pop or Peek
// (or the last pushed rebase), while the heap holds anything.
func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{0, 140, 1, 0, 150, 2, 0, 160, 3, 2, 2, 2, 2}) // monotone
	f.Add([]byte{0, 160, 0, 0, 150, 1, 2, 0, 140, 2, 2, 2})    // push below the floor
	f.Add([]byte{0, 150, 0, 2, 0, 140, 0, 3, 0, 130, 0, 2, 2}) // the floor drops once empty
	f.Add([]byte{0, 140, 0, 0, 140, 1, 0, 140, 1, 0, 140, 3, 3, 2, 0, 140, 0, 2, 2, 2, 2})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1, 2, 2, 2, 2, 2}) // -0 and +0 tie
	f.Add([]byte{0, 150, 1, 0, 151, 2, 0, 152, 3, 0, 200, 0, 4, 2, 4, 0, 5, 2})
	f.Add([]byte{0, 2, 0, 0, 3, 1, 0, 4, 2, 0, 5, 3, 0, 6, 0, 0, 7, 1, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 140, 0, 0, 130, 1, 5, 0, 120, 2, 3, 0, 110, 3, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h Heap[fuzzVal]
		h.Tie = func(a, b fuzzVal) bool { return a.id < b.id }
		h.TieKey = func(v fuzzVal) uint64 { return v.tk }
		var want []fuzzItem // sorted by fuzzBefore
		floor, hasFloor, rebases := 0.0, false, 0
		take := func() fuzzItem {
			it := want[0]
			want = want[1:]
			floor, hasFloor = it.key, len(want) > 0
			return it
		}
		check := func(what string, key float64, v fuzzVal, ok bool, it fuzzItem) {
			t.Helper()
			if !ok || v != it.v || math.Float64bits(key) != math.Float64bits(it.key) {
				t.Fatalf("%s = (%v, %+v, %t), want (%v, %+v)", what, key, v, ok, it.key, it.v)
			}
		}
		next := 0
		for i := 0; i < len(ops); i++ {
			switch ops[i] % 6 {
			case 0, 1: // Push(key, tie key)
				if i+2 >= len(ops) {
					return
				}
				it := fuzzItem{fuzzKey(ops[i+1]), fuzzVal{next, uint64(ops[i+2] % 4)}}
				i += 2
				next++
				if hasFloor && it.key < floor {
					floor = it.key
					rebases++
				}
				h.Push(it.key, it.v)
				at := sort.Search(len(want), func(j int) bool { return fuzzBefore(it, want[j]) })
				want = append(want, fuzzItem{})
				copy(want[at+1:], want[at:])
				want[at] = it
			case 2: // Pop
				k, v, ok := h.Pop()
				if len(want) == 0 {
					if ok {
						t.Fatalf("Pop on an empty heap returned (%v, %+v)", k, v)
					}
					continue
				}
				check("Pop", k, v, ok, take())
			case 3: // Peek
				k, v, ok := h.Peek()
				if len(want) == 0 {
					if ok {
						t.Fatalf("Peek on an empty heap returned (%v, %+v)", k, v)
					}
					continue
				}
				check("Peek", k, v, ok, want[0])
				floor, hasFloor = want[0].key, true
			case 4: // ExtractAllMin(eps)
				if i+1 >= len(ops) {
					return
				}
				eps := float64(ops[i+1]%4) / 4
				i++
				got, key := h.ExtractAllMin([]fuzzVal{{id: -1}}, eps)
				if len(want) == 0 {
					if len(got) != 1 || key != 0 {
						t.Fatalf("ExtractAllMin on an empty heap = %v, %v", got, key)
					}
					continue
				}
				minKey := want[0].key
				wantVals := []fuzzVal{{id: -1}}
				for len(want) > 0 && want[0].key <= minKey+eps {
					wantVals = append(wantVals, take().v)
				}
				if math.Float64bits(key) != math.Float64bits(minKey) || len(got) != len(wantVals) {
					t.Fatalf("ExtractAllMin(%v) = %v key %v, want %v key %v", eps, got, key, wantVals, minKey)
				}
				for j := range got {
					if got[j] != wantVals[j] {
						t.Fatalf("ExtractAllMin(%v) = %v, want %v", eps, got, wantVals)
					}
				}
			case 5: // Reset
				h.Reset()
				want, hasFloor = want[:0], false
			}
			if h.Len() != len(want) {
				t.Fatalf("Len = %d after op %d, want %d", h.Len(), i, len(want))
			}
			if h.Rebases() != rebases {
				t.Fatalf("Rebases = %d after op %d, want %d", h.Rebases(), i, rebases)
			}
		}
		for len(want) > 0 {
			k, v, ok := h.Pop()
			check("draining Pop", k, v, ok, take())
		}
		if h.Len() != 0 {
			t.Fatalf("Len = %d after draining", h.Len())
		}
	})
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"clockroute/internal/candidate"
	"clockroute/internal/pqueue"
)

// tieFloats is the pool the tie-key property draws floats from: both
// zeros, subnormals, values one ulp apart, values that share their top 32
// order bits, and ordinary magnitudes, so equal keys, equal packed halves
// and repeated fields are all common.
var tieFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 1e-300, 0.0234, math.Nextafter(0.0234, 1),
	0.0234 + 1e-12, 0.03, 1, math.Nextafter(1, 2), 22, 400, 400.0000001, -22, -400, 1e300,
}

// randCandidate draws a candidate whose fields repeat often.
func randCandidate(rng *rand.Rand) candidate.Candidate {
	pick := func() float64 { return tieFloats[rng.Intn(len(tieFloats))] }
	return candidate.Candidate{
		C: pick(), D: pick(), L: pick(), Slack: pick(),
		Node: int32(rng.Intn(4)), Gate: candidate.Gate(rng.Intn(6) - 4),
		Z: uint8(rng.Intn(2)), Regs: int32(rng.Intn(3)),
	}
}

// TestPackedTieKeysAgree checks the property the heaps rely on when they
// compare packed tie keys before candidateTieLess: among two candidates
// queued under equal keys (equal order bits, so +0 and −0 are one key), a
// smaller packed key always means candidateTieLess puts that candidate
// first, and never the other. The delay-keyed heaps (Q, the wave heaps)
// pack (Node, C); the latency-keyed Q* packs (Node, D). FuzzHeapOrder in
// internal/pqueue pins the heap's own (key, TieKey, Tie) pop order.
func TestPackedTieKeysAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, h := range []struct {
		name string
		key  func(*candidate.Candidate) *float64
		tk   func(*candidate.Candidate) uint64
	}{
		{"delay-keyed", func(c *candidate.Candidate) *float64 { return &c.D }, tieKeyNodeC},
		{"latency-keyed", func(c *candidate.Candidate) *float64 { return &c.L }, tieKeyNodeD},
	} {
		for i := 0; i < 200000; i++ {
			a, b := randCandidate(rng), randCandidate(rng)
			// Unequal keys never reach the tie order: give b a's key, or
			// the other zero when it is one.
			*h.key(&b) = *h.key(&a)
			if *h.key(&a) == 0 && rng.Intn(2) == 0 {
				*h.key(&b) = -*h.key(&a)
			}
			if pqueue.OrderBits(*h.key(&a)) != pqueue.OrderBits(*h.key(&b)) {
				t.Fatalf("%s: keys %v and %v are not one heap key", h.name, *h.key(&a), *h.key(&b))
			}
			for _, p := range [][2]*candidate.Candidate{{&a, &b}, {&b, &a}} {
				x, y := p[0], p[1]
				if h.tk(x) < h.tk(y) && (!candidateTieLess(x, y) || candidateTieLess(y, x)) {
					t.Fatalf("%s: packed key %#x < %#x disagrees with candidateTieLess\n%+v\n%+v",
						h.name, h.tk(x), h.tk(y), *x, *y)
				}
			}
		}
	}
}

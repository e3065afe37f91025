package core

import (
	"clockroute/internal/candidate"
	"clockroute/internal/pqueue"
)

// Packed tie keys.
//
// candidateTieLess orders equal-key heap entries by
// (Node, D, C, Gate, Regs, Z, Slack, L). Both heaps in the search core
// push under a fixed key discipline: Q is keyed by the candidate's
// accumulated delay D, and GALS's Q* by the candidate's latency L. The heap
// consults the tie order only on *exact* key equality, so on a D-keyed heap
// the D comparison inside candidateTieLess is always a no-op and the
// effective order starts (Node, C, ...); on the L-keyed Q* it starts
// (Node, D, ...).
//
// That lets a single uint64 — the node ID in the high 32 bits and a
// monotone 32-bit projection of the first float field in the low 32 —
// decide almost every tie with one integer compare instead of a
// multi-field comparator call across two cache lines. The projection is
// order-preserving, not injective: when two packed keys collide the heap
// falls back to the full comparator, so pop order (and therefore every
// routed result) is exactly candidateTieLess's. TestPackedTieKeysAgree
// checks the prefix property on random equal-key pairs.

// tieBits32 maps f to a uint32 that preserves the < order of float64s:
// a < b implies tieBits32(a) <= tieBits32(b), and tieBits32(a) <
// tieBits32(b) implies a < b. It is the top half of the heap's own key
// order (pqueue.OrderBits), which collapses negative zero onto positive
// zero because IEEE equality makes candidateTieLess treat them as the same
// value.
func tieBits32(f float64) uint32 {
	return uint32(pqueue.OrderBits(f) >> 32)
}

// tieKeyNodeC packs (Node, C) — the tie prefix for the D-keyed Q.
// Node IDs are non-negative, so the int32→uint32 cast is monotone.
func tieKeyNodeC(c *candidate.Candidate) uint64 {
	return uint64(uint32(c.Node))<<32 | uint64(tieBits32(c.C))
}

// tieKeyNodeD packs (Node, D) — the tie prefix for GALS's L-keyed Q*.
func tieKeyNodeD(c *candidate.Candidate) uint64 {
	return uint64(uint32(c.Node))<<32 | uint64(tieBits32(c.D))
}

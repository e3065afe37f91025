// Package pqueue provides the priority queue of the search kernels: a
// float64-keyed radix heap that pops in (key, packed tie key, Tie) order,
// and an ExtractAllMin helper that pulls a whole equal-key wavefront (used
// by GALS's Q*).
package pqueue

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// OrderBits maps k to a uint64 whose unsigned order is k's float64 order:
// a < b implies OrderBits(a) < OrderBits(b). The mapping is the usual
// sign-magnitude fix-up — flip every bit of a negative key, set the sign
// bit of a non-negative one — with -0 collapsed onto +0 first, because the
// two compare equal. NaN has no place in the order.
func OrderBits(k float64) uint64 {
	if k == 0 {
		return 1 << 63
	}
	b := math.Float64bits(k)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// item is one bucketed entry. The key is kept as pushed, not as its order
// bits, so Pop hands back -0 and +0 exactly as they came in.
type item[T any] struct {
	key float64
	v   T
}

// tieItem is one entry of the tie run: an item plus the packed tie key it
// was given when it entered the run.
type tieItem[T any] struct {
	key float64
	tk  uint64
	v   T
}

// Heap is a min-priority queue of values keyed by float64 priorities: a
// radix heap over each key's OrderBits. The zero value is an empty heap
// ready to use.
//
// The heap keeps a floor: the key of the last Pop or Peek, reset whenever
// the heap empties. Items whose key equals the floor wait in the tie run,
// a slice sorted once by (packed tie key, Tie) when the floor rises and
// read from its head. Every other item sits unordered in bucket i, where i
// is the highest bit at which its order bits differ from the floor's.
// Raising the floor to the lowest bucket's minimum moves that bucket's
// items into strictly lower buckets or the tie run, so between rebases an
// item moves at most 64 times and no Pop pays a log-n sift.
//
// A push above the floor costs one append. One at the floor is
// binary-searched into the unread part of the run, which keeps the run
// exact; the search kernels make none, since each key they push lies
// strictly above its queue's floor (DESIGN.md, "Radix queue"). A push
// below the floor rebases the heap: the floor drops to the new key, and
// the items under the highest bit where the two floors differ merge into
// one bucket. Any push sequence therefore pops in exactly (key, packed
// tie key, Tie) order; Rebases counts the slow pushes. A label-setting
// search never rebases: each key it pushes is a popped key plus a
// non-negative term, and adding a non-negative number never rounds an
// IEEE sum below its base.
//
// Keys must not be NaN.
type Heap[T any] struct {
	// Tie, when non-nil, breaks exact key equality: among equal-key items
	// the one for which Tie(a, b) reports a-before-b pops first. With a Tie
	// that is a strict total order over the queued values, Pop becomes a
	// pure function of the heap's *contents* — the pop sequence no longer
	// depends on insertion order or heap shape, which is what lets a search
	// that prunes a subset of pushes still pop the surviving candidates in
	// exactly the order the unpruned search would. Tie is consulted only on
	// exact float64 equality, so it costs nothing on distinct keys.
	Tie func(a, b T) bool

	// TieKey, when non-nil, supplies a packed uint64 prefix of the Tie
	// order: for any values a, b queued under equal keys, tk(a) < tk(b)
	// must imply Tie(a, b) and tk(a) > tk(b) must imply Tie(b, a); only on
	// tk(a) == tk(b) is the full Tie comparator consulted. The key is
	// computed once, when an item enters the tie run, and compared with a
	// single integer compare in the run's sort, replacing most multi-field
	// comparator calls. When TieKey is nil every packed key is zero and
	// ordering falls through to Tie. Set TieKey (like Tie) only while the
	// heap is empty.
	TieKey func(v T) uint64

	run     []tieItem[T]  // the items whose key is the floor; run[head:] is sorted and unread
	head    int           // next item of run to pop; 0 whenever run is empty
	buckets [64][]item[T] // buckets[i]: order bits differ from the floor's first at bit i
	full    uint64        // bit i set iff buckets[i] is non-empty
	floor   uint64        // OrderBits of the floor key; 0 while the heap is empty
	n       int
	rebases int
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return h.n }

// Rebases reports how many pushes since the heap was created landed below
// its floor. Reset keeps the count.
func (h *Heap[T]) Rebases() int { return h.rebases }

// Reset empties the heap, keeping the allocated storage.
func (h *Heap[T]) Reset() {
	h.run, h.head = h.run[:0], 0
	for f := h.full; f != 0; f &= f - 1 {
		i := bits.TrailingZeros64(f)
		h.buckets[i] = h.buckets[i][:0]
	}
	h.full, h.floor, h.n = 0, 0, 0
}

// Push inserts v with priority key.
func (h *Heap[T]) Push(key float64, v T) {
	k := OrderBits(key)
	if k < h.floor {
		h.rebase(k)
	}
	h.n++
	h.place(key, k, v)
}

// Peek returns the minimum-key item without removing it. It raises the
// floor to that item's key.
func (h *Heap[T]) Peek() (key float64, v T, ok bool) {
	if h.n == 0 {
		var zero T
		return 0, zero, false
	}
	h.settle()
	it := &h.run[h.head]
	return it.key, it.v, true
}

// Pop removes and returns the minimum-key item.
func (h *Heap[T]) Pop() (key float64, v T, ok bool) {
	if h.n == 0 {
		var zero T
		return 0, zero, false
	}
	h.settle()
	it := h.run[h.head]
	if h.head++; h.head == len(h.run) {
		clear(h.run) // release references for GC
		h.run, h.head = h.run[:0], 0
	}
	if h.n--; h.n == 0 {
		h.floor = 0
	}
	return it.key, it.v, true
}

// ExtractAllMin removes every item whose key is within eps of the minimum
// key and appends them to dst, returning the extended slice and the shared
// key. This is the GALS wavefront operation Q = ExtractAllMin(Q*). The
// floor ends at the last extracted key, not at the first key beyond eps.
func (h *Heap[T]) ExtractAllMin(dst []T, eps float64) ([]T, float64) {
	minKey, v, ok := h.Pop()
	if !ok {
		return dst, 0
	}
	dst = append(dst, v)
	for limit := minKey + eps; h.n > 0 && h.nextKey() <= limit; {
		_, v, _ = h.Pop()
		dst = append(dst, v)
	}
	return dst, minKey
}

// place files an item whose key is at or above the floor: into the tie
// run at its sorted place when its key is the floor, else into the bucket
// of the highest bit at which its order bits k differ from the floor's.
func (h *Heap[T]) place(key float64, k uint64, v T) {
	if k == h.floor {
		it := tieItem[T]{key, h.tieKey(v), v}
		at, _ := slices.BinarySearchFunc(h.run[h.head:], it, h.order)
		h.run = slices.Insert(h.run, h.head+at, it)
		return
	}
	h.file(key, k, v)
}

// file appends an item whose order bits k are above the floor to the
// bucket of the highest bit at which k differs from the floor.
func (h *Heap[T]) file(key float64, k uint64, v T) {
	i := bits.Len64(k^h.floor) - 1
	h.buckets[i] = append(h.buckets[i], item[T]{key, v})
	h.full |= 1 << i
}

// tieKey returns v's packed tie key, zero when TieKey is unset.
func (h *Heap[T]) tieKey(v T) uint64 {
	if h.TieKey == nil {
		return 0
	}
	return h.TieKey(v)
}

// order compares two tie-run items by packed tie key, then by Tie.
func (h *Heap[T]) order(a, b tieItem[T]) int {
	if c := cmp.Compare(a.tk, b.tk); c != 0 || h.Tie == nil {
		return c
	}
	switch {
	case h.Tie(a.v, b.v):
		return -1
	case h.Tie(b.v, a.v):
		return 1
	}
	return 0
}

// settle makes the tie run hold the minimum key. Once the run is read out
// it raises the floor to the lowest bucket's minimum. That bucket's items
// agree with the old floor above its bit and all carry the bit, as does
// the new floor, so each joins the run or a strictly lower bucket; the run
// is then sorted once. The heap must be non-empty.
func (h *Heap[T]) settle() {
	if len(h.run) > 0 {
		return
	}
	i := bits.TrailingZeros64(h.full)
	b := h.buckets[i]
	h.floor = OrderBits(minKey(b))
	h.buckets[i] = b[:0]
	h.full &^= 1 << i
	for _, it := range b {
		if k := OrderBits(it.key); k != h.floor {
			h.file(it.key, k, it.v)
		} else {
			h.run = append(h.run, tieItem[T]{it.key, h.tieKey(it.v), it.v})
		}
	}
	clear(b) // release references for GC
	slices.SortFunc(h.run, h.order)
}

// nextKey returns the minimum queued key without raising the floor to it.
// The heap must be non-empty.
func (h *Heap[T]) nextKey() float64 {
	if len(h.run) > 0 {
		return h.run[h.head].key
	}
	return minKey(h.buckets[bits.TrailingZeros64(h.full)])
}

// rebase lowers the floor to k, the order bits of a key pushed below it.
// Let t be the highest bit at which the old floor (1 there) and k (0
// there) differ. An item in a bucket above t differs from k first at that
// same bit and stays put; every item in a bucket below t, and every
// unread tie-run item, agrees with the old floor down to bit t and moves
// to bucket t, which no item at or above the old floor could occupy.
func (h *Heap[T]) rebase(k uint64) {
	h.rebases++
	t := bits.Len64(h.floor^k) - 1
	below := uint64(1)<<t - 1
	moved := h.buckets[t]
	for _, it := range h.run[h.head:] {
		moved = append(moved, item[T]{it.key, it.v})
	}
	clear(h.run)
	h.run, h.head = h.run[:0], 0
	for f := h.full & below; f != 0; f &= f - 1 {
		i := bits.TrailingZeros64(f)
		moved = append(moved, h.buckets[i]...)
		clear(h.buckets[i])
		h.buckets[i] = h.buckets[i][:0]
	}
	h.full &^= below
	h.buckets[t] = moved
	if len(moved) > 0 {
		h.full |= 1 << t
	}
	h.floor = k
}

// minKey returns the least key in a non-empty bucket.
func minKey[T any](b []item[T]) float64 {
	m := b[0].key
	for _, it := range b[1:] {
		if it.key < m {
			m = it.key
		}
	}
	return m
}

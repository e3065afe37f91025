package pqueue

// entry is one binary-heap slot's ordering state: the float64 priority and
// the packed tie key. Keeping them adjacent means an ordering compare
// usually touches one cache line per slot instead of two parallel arrays;
// the values themselves live in a separate array and are only read on the
// (rare) full-comparator fallback.
type entry struct {
	key float64
	tk  uint64
}

// binHeap is a binary min-heap ordered by (key, packed tie key, tie). It is
// the radix heap's tie bucket: every item it holds carries the floor key,
// so the packed key and the tie comparator decide its order.
type binHeap[T any] struct {
	ents []entry
	vals []T
}

// less orders slots i and j by (key, packed tie key, tie)
// lexicographically. The packed compare resolves almost every exact-key
// tie without touching the values array; with both packed keys equal the
// full tie comparator (if any) decides.
func (h *binHeap[T]) less(i, j int, tie func(a, b T) bool) bool {
	a, b := &h.ents[i], &h.ents[j]
	if a.key != b.key {
		return a.key < b.key
	}
	if a.tk != b.tk {
		return a.tk < b.tk
	}
	return tie != nil && tie(h.vals[i], h.vals[j])
}

func (h *binHeap[T]) reset() {
	h.ents = h.ents[:0]
	h.vals = h.vals[:0]
}

func (h *binHeap[T]) push(key float64, tk uint64, v T, tie func(a, b T) bool) {
	h.ents = append(h.ents, entry{key, tk})
	h.vals = append(h.vals, v)
	h.up(len(h.ents)-1, tie)
}

// pop removes and returns the minimum item; the heap must be non-empty.
func (h *binHeap[T]) pop(tie func(a, b T) bool) (float64, T) {
	key, v := h.ents[0].key, h.vals[0]
	last := len(h.ents) - 1
	h.ents[0], h.vals[0] = h.ents[last], h.vals[last]
	var zero T
	h.vals[last] = zero // release reference for GC
	h.ents, h.vals = h.ents[:last], h.vals[:last]
	if last > 0 {
		h.down(0, tie)
	}
	return key, v
}

func (h *binHeap[T]) up(i int, tie func(a, b T) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p, tie) {
			return
		}
		h.swap(p, i)
		i = p
	}
}

func (h *binHeap[T]) down(i int, tie func(a, b T) bool) {
	n := len(h.ents)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small, tie) {
			small = l
		}
		if r < n && h.less(r, small, tie) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *binHeap[T]) swap(i, j int) {
	h.ents[i], h.ents[j] = h.ents[j], h.ents[i]
	h.vals[i], h.vals[j] = h.vals[j], h.vals[i]
}

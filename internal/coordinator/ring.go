package coordinator

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over backend indices. Each backend owns
// replicas virtual points, placed by hashing "url|replica"; a problem hash
// maps to the first point clockwise from its 64-bit prefix. Consistency is
// what makes failover cheap: a backend leaving (circuit open, exchange
// failed) moves only its own arc to the next healthy backend, so the rest
// of the plan keeps its assignment — and with it, each backend's warm
// result cache stays hot across drills.
type ring struct {
	points []ringPoint // sorted by key
}

type ringPoint struct {
	key uint64
	idx int
}

// replicas is the number of virtual points each backend owns.
const replicas = 64

// newRing builds the ring. URLs must be distinct.
func newRing(urls []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(urls)*replicas)}
	for i, u := range urls {
		for v := 0; v < replicas; v++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", u, v)))
			r.points = append(r.points, ringPoint{key: binary.BigEndian.Uint64(h[:8]), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].key != r.points[b].key {
			return r.points[a].key < r.points[b].key
		}
		// Tie-break on owner so the order is deterministic even on (astro-
		// nomically unlikely) colliding points.
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// walk visits the distinct backend indices in ring order starting from
// key's successor point, calling f for each; f returning false stops the
// walk. The first index visited is the key's primary assignment, the rest
// are its failover order.
func (r *ring) walk(key uint64, f func(idx int) bool) {
	n := len(r.points)
	if n == 0 {
		return
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].key >= key })
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if seen[p.idx] {
			continue
		}
		seen[p.idx] = true
		if !f(p.idx) {
			return
		}
	}
}

// owner returns the primary backend index for key.
func (r *ring) owner(key uint64) int {
	idx := -1
	r.walk(key, func(i int) bool { idx = i; return false })
	return idx
}

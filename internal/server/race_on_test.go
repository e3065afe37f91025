//go:build race

package server

// raceEnabled reports whether the race detector is active. Its shadow
// memory and slower searches make live-heap readings meaningless, so
// heap bounds are only asserted in non-race runs.
const raceEnabled = true

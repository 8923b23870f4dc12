//go:build !race

package locusd

// raceEnabled reports whether this test binary was built with the race
// detector; alloc-count assertions are skipped under it (instrumentation
// adds allocations that are not the code's own).
const raceEnabled = false

//go:build !race

package route

// raceEnabled reports whether this test binary was built with the race
// detector; alloc-count assertions on the pool are skipped under it.
const raceEnabled = false

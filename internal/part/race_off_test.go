//go:build !race

package part

// raceEnabled reports whether this test binary was built with the race
// detector; allocation bounds are skipped under it.
const raceEnabled = false

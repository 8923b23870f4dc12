//go:build race

package part

const raceEnabled = true

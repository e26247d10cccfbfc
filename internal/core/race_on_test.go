//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation pins do not hold.
const raceEnabled = true

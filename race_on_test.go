//go:build race

package axml_test

// raceEnabled: the race detector's instrumentation allocates, and sync.Pool
// drops items at random under it, so allocation bounds do not hold.
const raceEnabled = true

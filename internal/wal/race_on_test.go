//go:build race

package wal

// raceEnabled: under the race detector sync.Pool drops items at random, so
// buffer reuse cannot be pinned.
const raceEnabled = true

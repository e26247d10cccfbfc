//go:build race

package xmltok

// raceEnabled: the race detector's instrumentation allocates, so allocation
// pins do not hold.
const raceEnabled = true

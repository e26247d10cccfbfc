//go:build !race

package xmltok

const raceEnabled = false

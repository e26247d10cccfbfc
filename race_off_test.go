//go:build !race

package axml_test

const raceEnabled = false

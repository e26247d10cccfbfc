package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentileMs returns the p-th percentile (nearest rank) of latencies
// given in nanoseconds, in milliseconds; 0 for an empty class. It sorts in
// place.
func percentileMs(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(p*float64(len(ns))+0.999999) - 1
	return float64(ns[min(max(i, 0), len(ns)-1)]) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// betterQuartile returns the quartile of v that lies toward the better
// side: the first quartile when lower is better, the third when higher is.
// Neighbours on the host only ever slow a slice down, never speed it up, so
// the better slices are the ones that measured the software; the quartile,
// not the extreme, so that one lucky slice does not set the metric.
func betterQuartile(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[len(s)-1-len(s)/4]
	}
	return s[len(s)/4]
}

// Two reference loops, neither of which runs any code under test, are timed
// before and after every set-up and every slice of a timed phase. The
// integer loop stays in registers and the first-level cache; the chase is a
// chain of dependent loads over 16 MB, far beyond the second-level cache.
// When neighbours on the host are busy the first slows a little and the
// second a lot; the server's own code sits between them. Every time the
// end-to-end run reports is scaled by the geometric mean of the two, each
// loop relative to what it takes on the host this benchmark was sized on
// when nothing disturbs it, so that a run whose seconds fell on a slower
// host reports what it would have on the reference. The reference constants
// only fix the scale; comparisons between runs on one host do not depend on
// them. NOISE.md has the same runs with and without the factor.
const (
	calibRefMs = 50.0
	chaseRefMs = 50.0
)

// hostSample is one timing of the two reference loops, in milliseconds.
type hostSample struct{ calib, chase float64 }

func sampleHost() hostSample { return hostSample{calibrate(), chase()} }

// mid is the mean of two samples: the host as it was between them.
func (a hostSample) mid(b hostSample) hostSample {
	return hostSample{(a.calib + b.calib) / 2, (a.chase + b.chase) / 2}
}

// factor is how much slower than the reference the host was: above 1 is
// slower.
func (h hostSample) factor() float64 {
	return math.Sqrt(h.calib / calibRefMs * h.chase / chaseRefMs)
}

// calibrate times the integer loop (mixing over a small array: no
// allocation, no system call) and returns milliseconds.
func calibrate() float64 {
	var a [1024]uint64
	for i := range a {
		a[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 25_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[x&1023] += x
	}
	calibSink.Add(a[x&1023])
	return float64(time.Since(t0)) / 1e6
}

var (
	calibSink atomic.Uint64 // keeps the loops' results alive
	chain     []uint32      // one random cycle through 4 Mi entries
	chainOnce sync.Once
)

// chase times a million dependent loads along the cycle and returns
// milliseconds. The first call builds the cycle, so make it outside
// anything timed.
func chase() float64 {
	chainOnce.Do(func() {
		chain = make([]uint32, 4<<20)
		for i := range chain {
			chain[i] = uint32(i)
		}
		r := rand.New(rand.NewSource(1))
		for i := len(chain) - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
			j := r.Intn(i)
			chain[i], chain[j] = chain[j], chain[i]
		}
	})
	t0 := time.Now()
	i := uint32(0)
	for k := 0; k < 1_000_000; k++ {
		i = chain[i]
	}
	calibSink.Add(uint64(i))
	return float64(time.Since(t0)) / 1e6
}

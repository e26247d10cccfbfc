package budget

// VictimSample is how many evictable entries a cache looks at to choose the
// one it gives up. Eight keeps the choice within a few percent of exact LRU's
// hit ratio on skewed traffic and costs the same whatever the cache holds.
const VictimSample = 8

// Oldest picks an eviction victim from m: the entry with the lowest stamp
// among the first VictimSample evictable ones a walk of the map yields. Go
// starts every map walk at a random position, so that is a random sample —
// LRU by sampling, and exact LRU for a map no larger than the sample. stamp
// gives an entry's recency and whether it may be evicted at all; entries that
// may not are passed over without counting, so a victim is found whenever one
// exists.
func Oldest[K comparable, V any](m map[K]V, stamp func(V) (uint64, bool)) (victim V, found bool) {
	var oldest uint64
	seen := 0
	for _, v := range m {
		u, ok := stamp(v)
		if !ok {
			continue
		}
		if !found || u < oldest {
			victim, oldest, found = v, u, true
		}
		if seen++; seen == VictimSample {
			break
		}
	}
	return victim, found
}

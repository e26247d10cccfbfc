package budget

// VictimSample is how many evictable entries a cache looks at to choose the
// one it gives up. Eight keeps the choice within a few percent of exact LRU's
// hit ratio on skewed traffic and costs the same whatever the cache holds.
const VictimSample = 8

// VictimSlot is what a cache entry embeds to be kept in a Victims list: its
// index there.
type VictimSlot struct{ slot int }

func (s *VictimSlot) victimSlot() *int { return &s.slot }

// slotted is an entry that embeds a VictimSlot.
type slotted interface{ victimSlot() *int }

// Victims holds a cache's entries in a dense slice, for Oldest to sample. It
// is the one eviction scheme of the buffer pool, the Partial Index and the
// plan cache: LRU by sampling from a hand that rotates over the slice, so a
// sample costs VictimSample reads whatever the cache holds, and which entry
// goes depends only on what the cache was asked — two runs of the same
// requests evict the same entries. The cache calls Add and Remove as entries
// come and go, under its own lock.
type Victims[V slotted] struct {
	items []V
	hand  int
}

// Add appends v.
func (vs *Victims[V]) Add(v V) {
	*v.victimSlot() = len(vs.items)
	vs.items = append(vs.items, v)
}

// Remove takes v out, moving the last entry into its slot.
func (vs *Victims[V]) Remove(v V) {
	i, last := *v.victimSlot(), len(vs.items)-1
	moved := vs.items[last]
	vs.items[i] = moved
	*moved.victimSlot() = i
	var zero V
	vs.items[last] = zero
	vs.items = vs.items[:last]
}

// Reset empties the list.
func (vs *Victims[V]) Reset() {
	clear(vs.items)
	vs.items, vs.hand = vs.items[:0], 0
}

// Oldest picks an eviction victim: the entry with the lowest stamp among the
// next VictimSample evictable ones from the hand, which moves past them —
// exact LRU for a list no longer than the sample. stamp gives an entry's
// recency and whether it may be evicted at all; entries that may not are
// passed over without counting, so a victim is found whenever one exists.
func (vs *Victims[V]) Oldest(stamp func(V) (uint64, bool)) (victim V, found bool) {
	var oldest uint64
	seen := 0
	for k := 0; k < len(vs.items) && seen < VictimSample; k++ {
		if vs.hand >= len(vs.items) {
			vs.hand = 0
		}
		v := vs.items[vs.hand]
		vs.hand++
		u, ok := stamp(v)
		if !ok {
			continue
		}
		if !found || u < oldest {
			victim, oldest, found = v, u, true
		}
		seen++
	}
	return victim, found
}

package budget

import (
	"math/rand"
	"testing"
)

type victimEntry struct {
	VictimSlot
	stamp  uint64
	pinned bool
}

func stampOf(e *victimEntry) (uint64, bool) { return e.stamp, !e.pinned }

// TestVictimsExactLRUWithinSample: a list no longer than the sample gives
// up exactly its least recently used evictable entry, whatever the hand.
func TestVictimsExactLRUWithinSample(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var vs Victims[*victimEntry]
		var want *victimEntry
		for i := 0; i < 1+r.Intn(VictimSample); i++ {
			e := &victimEntry{stamp: uint64(r.Intn(1000)), pinned: r.Intn(4) == 0}
			vs.Add(e)
			if !e.pinned && (want == nil || e.stamp < want.stamp) {
				want = e
			}
		}
		vs.hand = r.Intn(len(vs.items) + 1)
		got, ok := vs.Oldest(stampOf)
		if ok != (want != nil) || ok && got.stamp != want.stamp {
			t.Fatalf("round %d: victim %v (%v), want %v", round, got, ok, want)
		}
	}
}

// TestVictimsRemoveKeepsSlots: after any mix of adds and removes every entry
// sits at the slot it records, and a sample of a long list walks on from
// where the last one stopped.
func TestVictimsRemoveKeepsSlots(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var vs Victims[*victimEntry]
	var live []*victimEntry
	for op := 0; op < 5000; op++ {
		if len(live) == 0 || r.Intn(3) > 0 {
			e := &victimEntry{stamp: uint64(op)}
			vs.Add(e)
			live = append(live, e)
		} else {
			k := r.Intn(len(live))
			vs.Remove(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if len(vs.items) != len(live) {
			t.Fatalf("op %d: %d items, %d live", op, len(vs.items), len(live))
		}
		for i, e := range vs.items {
			if e.slot != i {
				t.Fatalf("op %d: entry at %d records slot %d", op, i, e.slot)
			}
		}
	}
	vs.hand = 0
	vs.Oldest(stampOf)
	if vs.hand != VictimSample {
		t.Errorf("hand at %d after one sample of %d entries, want %d", vs.hand, len(vs.items), VictimSample)
	}
}

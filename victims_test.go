package axml_test

import (
	"math/rand"
	"testing"

	axml "repro"
	"repro/internal/workload"
)

// TestCacheVictimsRepeatRunToRun replays one seeded serve-mixed-like run
// twice in process — Zipf reads beside inserts that split the hot ranges, on
// a buffer pool and a Partial Index far smaller than the data — and requires
// the same evictions, invalidations and pool misses both times: the caches
// choose their victims from what they were asked alone. When a sample was
// the first few entries of a Go map walk, which starts at random, the
// counts differed from run to run.
func TestCacheVictimsRepeatRunToRun(t *testing.T) {
	run := func() [6]uint64 {
		s, err := axml.Open(axml.Config{Mode: axml.RangePartial, PoolPages: 24, PartialCapacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		gen := workload.New(4003)
		root, err := axml.LoadXMLString(s, "<purchase-orders/>")
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < 2000; lo += 200 {
			var frag []axml.Token
			for i := lo; i < lo+200; i++ {
				frag = append(frag, gen.PurchaseOrder(i)...)
			}
			if _, err := s.InsertIntoLast(root, frag); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := axml.Query(s, "/purchase-orders/purchase-order")
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(4003))
		z := rand.NewZipf(r, 1.2, 1, uint64(len(ids)-1))
		for k := 0; k < 4000; k++ {
			id := ids[z.Uint64()]
			if k%10 == 9 {
				_, err = s.InsertAfter(id, gen.PurchaseOrder(2000+k))
			} else {
				_, err = s.NodeXMLString(id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		return [6]uint64{st.Pool.Evictions, st.Pool.Misses, st.Pool.Hits, st.PartialEvictions, st.PartialInvalidations, st.PartialHits}
	}
	a, b := run(), run()
	t.Logf("pool evictions, misses, hits; partial evictions, invalidations, hits: %v", a)
	if a != b {
		t.Errorf("two replays of one seed: %v, then %v", a, b)
	}
	if a[0] == 0 || a[3] == 0 {
		t.Errorf("the replay evicted nothing from the pool or the Partial Index (%v): it shows nothing", a)
	}
}

package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New[string]()
	if tr.Len() != 0 {
		t.Fatal("empty tree has entries")
	}
	if _, ok := tr.Get(7); ok {
		t.Error("Get on empty tree")
	}
	if _, _, ok := tr.Floor(7); ok {
		t.Error("Floor on empty tree")
	}
	if _, _, ok := tr.Ceiling(7); ok {
		t.Error("Ceiling on empty tree")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	if tr.Delete(7) {
		t.Error("Delete on empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetGet(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		tr.Set(uint64(i*3), i)
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Get(uint64(i * 3))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i*3, v, ok)
		}
	}
	if _, ok := tr.Get(1); ok {
		t.Error("Get of absent key")
	}
	// Overwrite.
	tr.Set(30, -1)
	if v, _ := tr.Get(30); v != -1 {
		t.Error("overwrite failed")
	}
	if tr.Len() != 1000 {
		t.Error("overwrite changed size")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFloorCeiling(t *testing.T) {
	tr := New[string]()
	// Interval starts at 10, 20, ..., 1000 — like range index startIDs.
	for k := uint64(10); k <= 1000; k += 10 {
		tr.Set(k, "r")
	}
	cases := []struct {
		k         uint64
		floor     uint64
		floorOK   bool
		ceiling   uint64
		ceilingOK bool
	}{
		{5, 0, false, 10, true},
		{10, 10, true, 10, true},
		{15, 10, true, 20, true},
		{999, 990, true, 1000, true},
		{1000, 1000, true, 1000, true},
		{2000, 1000, true, 0, false},
	}
	for _, c := range cases {
		fk, _, ok := tr.Floor(c.k)
		if ok != c.floorOK || (ok && fk != c.floor) {
			t.Errorf("Floor(%d) = %d, %v; want %d, %v", c.k, fk, ok, c.floor, c.floorOK)
		}
		ck, _, ok := tr.Ceiling(c.k)
		if ok != c.ceilingOK || (ok && ck != c.ceiling) {
			t.Errorf("Ceiling(%d) = %d, %v; want %d, %v", c.k, ck, ok, c.ceiling, c.ceilingOK)
		}
	}
	if k, _, ok := tr.Min(); !ok || k != 10 {
		t.Errorf("Min = %d, %v", k, ok)
	}
	if k, _, ok := tr.Max(); !ok || k != 1000 {
		t.Errorf("Max = %d, %v", k, ok)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 500; i++ {
		tr.Set(uint64(i), i)
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(uint64(i)) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 500; i++ {
		_, ok := tr.Get(uint64(i))
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) = %v after deletes", i, ok)
		}
	}
	if tr.Delete(0) {
		t.Error("double delete")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Delete everything.
	for i := 1; i < 500; i += 2 {
		if !tr.Delete(uint64(i)) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after full delete", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Tree is reusable.
	tr.Set(42, 42)
	if v, ok := tr.Get(42); !ok || v != 42 {
		t.Error("tree unusable after emptying")
	}
}

func TestAscend(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 300; i++ {
		tr.Set(uint64(i*2), i)
	}
	var keys []uint64
	tr.Ascend(100, 200, func(k uint64, v int) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 51 { // 100,102,...,200
		t.Fatalf("got %d keys", len(keys))
	}
	for i, k := range keys {
		if k != uint64(100+i*2) {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
	// Early stop.
	n := 0
	tr.AscendAll(func(uint64, int) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
	// Empty interval.
	n = 0
	tr.Ascend(1001, 2000, func(uint64, int) bool { n++; return true })
	if n != 0 {
		t.Errorf("out-of-range ascend visited %d", n)
	}
}

func TestHeightGrows(t *testing.T) {
	tr := New[int]()
	if tr.Height() != 1 {
		t.Fatal("empty tree height != 1")
	}
	for i := 0; i < 100000; i++ {
		tr.Set(uint64(i), i)
	}
	if h := tr.Height(); h < 3 {
		t.Errorf("height %d too small for 100k entries", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	ref := map[uint64]int{}
	for step := 0; step < 20000; step++ {
		k := uint64(r.Intn(2000))
		switch r.Intn(3) {
		case 0, 1:
			v := r.Int()
			tr.Set(k, v)
			ref[k] = v
		case 2:
			want := false
			if _, ok := ref[k]; ok {
				want = true
				delete(ref, k)
			}
			if got := tr.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, tr.Len(), len(ref))
		}
	}
	// Full comparison.
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, got, ok, v)
		}
	}
	var keys []uint64
	tr.AscendAll(func(k uint64, _ int) bool { keys = append(keys, k); return true })
	if len(keys) != len(ref) {
		t.Fatalf("ascend saw %d keys, want %d", len(keys), len(ref))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("ascend out of order")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestQuickFloorProperty(t *testing.T) {
	// Floor(k) is the max key <= k, verified against a sorted slice.
	f := func(keys []uint64, probe uint64) bool {
		tr := New[bool]()
		uniq := map[uint64]bool{}
		for _, k := range keys {
			tr.Set(k, true)
			uniq[k] = true
		}
		var want uint64
		found := false
		for k := range uniq {
			if k <= probe && (!found || k > want) {
				want, found = k, true
			}
		}
		gk, _, ok := tr.Floor(probe)
		if ok != found {
			return false
		}
		return !ok || gk == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDescendingInsert(t *testing.T) {
	tr := New[int]()
	for i := 5000; i > 0; i-- {
		tr.Set(uint64(i), i)
	}
	if tr.Len() != 5000 {
		t.Fatalf("len = %d", tr.Len())
	}
	prev := uint64(0)
	tr.AscendAll(func(k uint64, v int) bool {
		if k <= prev && prev != 0 {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		prev = k
		return true
	})
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// leaves returns the leaf chain from the leftmost leaf.
func (t *Tree[V]) leaves() []*node[V] {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	var out []*node[V]
	for ; n != nil; n = n.next {
		out = append(out, n)
	}
	return out
}

// TestAscendingInsertKeepsLeavesFull: keys arriving in ascending order, as
// the Range Index receives them, leave every leaf but the last holding
// degree keys in arrays of exactly that length. An insert into the middle
// of a full leaf still splits it in half.
func TestAscendingInsertKeepsLeavesFull(t *testing.T) {
	tr := New[int]()
	const n = 10*degree + 7
	for i := 0; i < n; i++ {
		tr.Set(uint64(2*i), i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.leaves()
	if len(leaves) != n/degree+1 {
		t.Fatalf("%d keys in %d leaves, want %d", n, len(leaves), n/degree+1)
	}
	for i, l := range leaves[:len(leaves)-1] {
		if len(l.keys) != degree || cap(l.keys) != degree || cap(l.vals) != degree {
			t.Fatalf("leaf %d: %d keys, capacity %d keys and %d values; want %d of each",
				i, len(l.keys), cap(l.keys), cap(l.vals), degree)
		}
	}
	tr.Set(1, -1) // into the first, full leaf
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves = tr.leaves()
	if l, r := len(leaves[0].keys), len(leaves[1].keys); l != (degree+1)/2 || r != degree+1-(degree+1)/2 {
		t.Fatalf("a middle insert split a full leaf into %d and %d keys, want halves", l, r)
	}
}

// TestDeleteKeepsLeavesDense: deletes from the leaf before the last — where
// the Range Index loses the keys of merged ranges — leave every leaf but the
// last full, its holes moved to the last leaf; a delete elsewhere leaves the
// leaf that took the hole with arrays of exactly its length.
func TestDeleteKeepsLeavesDense(t *testing.T) {
	tr := New[int]()
	const n = 10*degree + 7
	for i := 0; i < n; i++ {
		tr.Set(uint64(2*i), i)
	}
	leaves := tr.leaves()
	for _, k := range leaves[len(leaves)-2].keys[:5:5] {
		if !tr.Delete(k) {
			t.Fatalf("key %d not deleted", k)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves = tr.leaves()
	for i, l := range leaves[:len(leaves)-1] {
		if len(l.keys) != degree || cap(l.keys) != degree || cap(l.vals) != degree {
			t.Fatalf("leaf %d after deletes: %d keys, capacity %d keys and %d values; want %d of each",
				i, len(l.keys), cap(l.keys), cap(l.vals), degree)
		}
	}
	if got := len(leaves[len(leaves)-1].keys); got != n%degree-5 {
		t.Fatalf("the last leaf holds %d keys, want %d", got, n%degree-5)
	}
	tr.Delete(leaves[2].keys[7])
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l := tr.leaves()[3]; len(l.keys) != degree-1 || cap(l.keys) != degree-1 || cap(l.vals) != degree-1 {
		t.Fatalf("the leaf that took the hole: %d keys, capacity %d and %d", len(l.keys), cap(l.keys), cap(l.vals))
	}
}

func BenchmarkSetSequential(b *testing.B) {
	tr := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(uint64(i), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 1<<20; i++ {
		tr.Set(uint64(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(uint64(i & (1<<20 - 1))); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkFloor(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 1<<18; i++ {
		tr.Set(uint64(i*16), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tr.Floor(uint64(i&(1<<22-1)) + 16); !ok {
			b.Fatal("miss")
		}
	}
}

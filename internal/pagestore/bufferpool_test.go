package pagestore

import (
	"runtime"
	"testing"
)

func newPool(t *testing.T, capacity int) *BufferPool {
	t.Helper()
	return NewBufferPool(NewMemPager(1024), capacity)
}

func TestPoolFetchNewPage(t *testing.T) {
	bp := newPool(t, 8)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f.Data[0] = 0xAB
	if err := bp.Unpin(f, true); err != nil {
		t.Fatal(err)
	}
	g, err := bp.Fetch(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 0xAB {
		t.Error("data lost")
	}
	bp.Unpin(g, false)
	st := bp.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
}

func TestPoolEvictionWritesBack(t *testing.T) {
	bp := newPool(t, 4)
	var ids []PageID
	// Create more pages than capacity, writing a signature in each.
	for i := 0; i < 10; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i + 1)
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	// All pages must read back correctly even though most were evicted.
	for i, id := range ids {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i+1) {
			t.Errorf("page %d: data = %d, want %d", id, f.Data[0], i+1)
		}
		bp.Unpin(f, false)
	}
	st := bp.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions")
	}
	if st.Flushes == 0 {
		t.Error("expected flushes of dirty pages")
	}
	if st.Misses == 0 {
		t.Error("expected misses on re-fetch")
	}
}

func TestPoolPinnedPagesNotEvicted(t *testing.T) {
	bp := newPool(t, 4)
	var pinned []*Frame
	for i := 0; i < 4; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	// Pool is full of pinned pages: next allocation must fail.
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("expected ErrPoolFull")
	}
	// Releasing one pin makes room.
	bp.Unpin(pinned[0], false)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestPoolDoublePin(t *testing.T) {
	bp := newPool(t, 4)
	f, _ := bp.NewPage()
	bp.Unpin(f, true)
	a, _ := bp.Fetch(f.ID)
	b, _ := bp.Fetch(f.ID)
	if a != b {
		t.Fatal("same page should share a frame")
	}
	if bp.PinnedCount() != 1 {
		t.Fatalf("pinned count = %d", bp.PinnedCount())
	}
	bp.Unpin(a, false)
	if bp.PinnedCount() != 1 {
		t.Fatal("still one pin outstanding")
	}
	bp.Unpin(b, false)
	if bp.PinnedCount() != 0 {
		t.Fatal("all pins released")
	}
	if err := bp.Unpin(b, false); err == nil {
		t.Error("unpin below zero should fail")
	}
}

func TestPoolFlushAll(t *testing.T) {
	pager := NewMemPager(1024)
	bp := NewBufferPool(pager, 8)
	f, _ := bp.NewPage()
	f.Data[5] = 0x77
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Verify directly via the pager.
	buf := make([]byte, 1024)
	if err := pager.ReadPage(f.ID, buf); err != nil {
		t.Fatal(err)
	}
	if buf[5] != 0x77 {
		t.Error("flush did not reach pager")
	}
}

func TestPoolFreePage(t *testing.T) {
	bp := newPool(t, 8)
	f, _ := bp.NewPage()
	id := f.ID
	if err := bp.FreePage(f); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fetch(id); err == nil {
		t.Error("fetch of freed page should fail")
	}
	// Freeing a page with extra pins fails.
	g, _ := bp.NewPage()
	bp.Unpin(g, false)
	g1, _ := bp.Fetch(g.ID)
	g2, _ := bp.Fetch(g.ID)
	_ = g2
	if err := bp.FreePage(g1); err == nil {
		t.Error("free with multiple pins should fail")
	}
}

func TestPoolResetStats(t *testing.T) {
	bp := newPool(t, 4)
	f, _ := bp.NewPage()
	bp.Unpin(f, false)
	bp.Fetch(f.ID)
	if bp.Stats().Hits == 0 {
		t.Fatal("expected a hit")
	}
	bp.ResetStats()
	if s := bp.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Error("stats not reset")
	}
}

func TestPoolMinimumCapacity(t *testing.T) {
	bp := NewBufferPool(NewMemPager(1024), 1)
	if bp.capacity < 4 {
		t.Errorf("capacity = %d, want >= 4", bp.capacity)
	}
}

func TestPoolLRUOrder(t *testing.T) {
	bp := newPool(t, 4)
	var ids []PageID
	for i := 0; i < 4; i++ {
		f, _ := bp.NewPage()
		ids = append(ids, f.ID)
		bp.Unpin(f, false)
	}
	// Touch page 0 so it becomes most recently used.
	f, _ := bp.Fetch(ids[0])
	bp.Unpin(f, false)
	// Adding a new page must evict ids[1] (the LRU), not ids[0].
	g, _ := bp.NewPage()
	bp.Unpin(g, false)
	bp.ResetStats()
	h, _ := bp.Fetch(ids[0])
	bp.Unpin(h, false)
	if bp.Stats().Hits != 1 {
		t.Error("recently used page was evicted")
	}
	bp.ResetStats()
	k, _ := bp.Fetch(ids[1])
	bp.Unpin(k, false)
	if bp.Stats().Misses != 1 {
		t.Error("LRU page should have been evicted")
	}
}

// TestPoolVictimBufferReuse pins the order of a fill that takes over its
// victim's page buffer: a dirty victim reaches the pager whole before the
// incoming page's bytes land in the buffer, the new frame sees its own page,
// the victim's frame lets go of the buffer, and a pool at capacity fills
// without allocating page memory.
func TestPoolVictimBufferReuse(t *testing.T) {
	pager := NewMemPager(1024)
	bp := NewBufferPool(pager, 4)
	fill := func(f *Frame, b byte) {
		for i := range f.Data[:bp.UsablePageSize()] {
			f.Data[i] = b
		}
	}
	var frames []*Frame
	for i := 0; i < 8; i++ { // pages 5..8 evict the dirty 1..4
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		fill(f, byte(i+1))
		frames = append(frames, f)
		if err := bp.Unpin(f, true); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, pager.PageSize())
	for i, f := range frames[:4] {
		if f.Data != nil {
			t.Errorf("evicted frame of page %d still holds a page buffer", f.ID)
		}
		if err := pager.ReadPage(f.ID, buf); err != nil {
			t.Fatal(err)
		}
		if err := VerifyChecksum(f.ID, buf); err != nil {
			t.Errorf("page %d was not flushed whole before its buffer was reused: %v", f.ID, err)
		}
		for _, b := range buf[:bp.UsablePageSize()] {
			if b != byte(i+1) {
				t.Fatalf("page %d in the pager holds byte %d, want %d: the buffer was reused before the flush", f.ID, b, i+1)
			}
		}
	}
	// Reads of the evicted pages now evict in turn, through View and Fetch.
	for i, f := range frames[:4] {
		id, want := f.ID, byte(i+1)
		check := func(data []byte) error {
			if data[0] != want || data[bp.UsablePageSize()-1] != want {
				t.Errorf("page %d read back as %d..%d, want %d", id, data[0], data[bp.UsablePageSize()-1], want)
			}
			return nil
		}
		if i%2 == 0 {
			if err := bp.View(id, check); err != nil {
				t.Fatal(err)
			}
			continue
		}
		g, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		check(g.Data)
		bp.Unpin(g, false)
	}
	ids := []PageID{frames[4].ID, frames[5].ID, frames[6].ID, frames[7].ID, frames[0].ID, frames[1].ID}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		bp.View(ids[n%len(ids)], func([]byte) error { return nil }) // 6 pages through 4 frames: most miss
	})
	if allocs > 2.5 {
		t.Errorf("a fill at capacity allocates %.1f objects (a Frame and a map slot are fine, more is not)", allocs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 400; i++ {
		bp.View(ids[i%len(ids)], func([]byte) error { return nil })
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 400*256 {
		t.Errorf("400 fills at capacity allocated %d bytes: page buffers are not being reused", grew)
	}
}

// writeCounter counts the pager writes of each page.
type writeCounter struct {
	*MemPager
	writes map[PageID]int
}

func (w *writeCounter) WritePage(id PageID, buf []byte) error {
	w.writes[id]++
	return w.MemPager.WritePage(id, buf)
}

func newCountedPool(capacity int) (*BufferPool, *writeCounter) {
	w := &writeCounter{MemPager: NewMemPager(1024), writes: map[PageID]int{}}
	return NewBufferPool(w, capacity), w
}

// checkDirtyLists verifies every shard's dirty list against its frames: it
// holds exactly the resident dirty frames, each once, at its own index.
func checkDirtyLists(t *testing.T, bp *BufferPool) {
	t.Helper()
	for si, sh := range bp.shards {
		dirty := 0
		for _, f := range sh.frames {
			if f.dirty {
				dirty++
				if f.dirtyAt >= len(sh.dirty) || sh.dirty[f.dirtyAt] != f {
					t.Fatalf("shard %d: dirty page %d is not at its index %d", si, f.ID, f.dirtyAt)
				}
			}
		}
		if len(sh.dirty) != dirty || len(sh.dirty) > len(sh.frames) {
			t.Fatalf("shard %d: dirty list %d, dirty frames %d, resident %d", si, len(sh.dirty), dirty, len(sh.frames))
		}
	}
}

// TestPoolDirtyListEvictRefetch: a page dirtied, evicted (written back),
// fetched again and dirtied again is written exactly once by the next
// FlushAll, and not at all by the one after.
func TestPoolDirtyListEvictRefetch(t *testing.T) {
	bp, w := newCountedPool(4)
	a, _ := bp.NewPage()
	bp.Unpin(a, true)
	for i := 0; i < 4; i++ { // evicts a
		f, _ := bp.NewPage()
		bp.Unpin(f, false)
	}
	if w.writes[a.ID] != 1 {
		t.Fatalf("eviction wrote page %d %d times, want 1", a.ID, w.writes[a.ID])
	}
	f, err := bp.Fetch(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	checkDirtyLists(t, bp)
	for round, want := range []int{2, 2} {
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if w.writes[a.ID] != want {
			t.Fatalf("FlushAll %d: page %d written %d times in all, want %d", round+1, a.ID, w.writes[a.ID], want)
		}
		checkDirtyLists(t, bp)
	}
}

// TestPoolFreedDirtyPageNeverWritten: freeing a dirty page takes it off the
// dirty list, so no flush writes it.
func TestPoolFreedDirtyPageNeverWritten(t *testing.T) {
	bp, w := newCountedPool(8)
	fresh, _ := bp.NewPage() // dirty from birth
	redirtied, _ := bp.NewPage()
	bp.Unpin(redirtied, true)
	redirtied, _ = bp.Fetch(redirtied.ID)
	if err := bp.FreePage(fresh); err != nil {
		t.Fatal(err)
	}
	if err := bp.FreePage(redirtied); err != nil {
		t.Fatal(err)
	}
	checkDirtyLists(t, bp)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 0 {
		t.Fatalf("freed dirty pages were written: %v", w.writes)
	}
}

// TestPoolDirtyListBoundedWithoutFlush: 10 000 dirtying unpins over more
// pages than the pool holds, with no FlushAll, leave each shard's dirty list
// no larger than its resident frames.
func TestPoolDirtyListBoundedWithoutFlush(t *testing.T) {
	bp, _ := newCountedPool(128) // two shards
	var ids []PageID
	for i := 0; i < 300; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	for i := 0; i < 10000; i++ {
		f, err := bp.Fetch(ids[i*7919%len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(f, true); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			checkDirtyLists(t, bp)
		}
	}
	checkDirtyLists(t, bp)
}

// TestPoolScrubSkipsDirtyFrames: a page dirty in the pool is skipped by
// Scrub (its pager copy is legitimately stale); once flushed and clean, a
// corrupt pager copy is reported.
func TestPoolScrubSkipsDirtyFrames(t *testing.T) {
	bp, w := newCountedPool(8)
	f, _ := bp.NewPage()
	bp.Unpin(f, true)
	corrupt := append(make([]byte, 1023), 0xFF) // no valid checksum
	w.MemPager.WritePage(f.ID, corrupt)
	if errs := bp.Scrub(); len(errs) != 0 {
		t.Fatalf("Scrub reported a page dirty in the pool: %v", errs)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if errs := bp.Scrub(); len(errs) != 0 {
		t.Fatalf("after FlushAll: %v", errs)
	}
	w.MemPager.WritePage(f.ID, corrupt)
	if errs := bp.Scrub(); len(errs) != 1 {
		t.Fatalf("Scrub of a clean page with a corrupt pager copy: %v", errs)
	}
}

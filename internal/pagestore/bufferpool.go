package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
)

// Buffer pool errors.
var (
	ErrPoolFull   = errors.New("pagestore: buffer pool full of pinned pages")
	ErrNotPinned  = errors.New("pagestore: unpin of page that is not pinned")
	ErrDoubleFree = errors.New("pagestore: freeing page with pins")
)

// Frame is a page resident in the buffer pool. The Data slice is valid while
// the frame is pinned; callers must not retain it past Unpin.
type Frame struct {
	budget.VictimSlot
	ID      PageID
	Data    []byte
	pins    int
	dirty   bool
	dirtyAt int           // index in the shard's dirty list while dirty
	stamp   atomic.Uint64 // last-use stamp from the pool clock
}

// PoolStats counts buffer pool traffic. Reads of XML data flow through the
// pool, so these numbers drive the experiments' I/O accounting.
type PoolStats struct {
	Hits      uint64 // Fetch satisfied from memory
	Misses    uint64 // Fetch required pager read
	Evictions uint64 // clean or flushed frames dropped for space
	Flushes   uint64 // dirty pages written back
}

// Shard geometry. Shards multiply only when the pool is big enough that each
// shard keeps a useful working set: small pools (tests pin them tightly)
// stay single-sharded and behave exactly like the classic one-mutex pool.
const (
	maxPoolShards      = 16
	minFramesPerShard  = 32
	poolShardThreshold = 2 * minFramesPerShard
)

// poolShard is one lock stripe: its own frame table and lock. Pages hash to
// exactly one shard, so concurrent reads of distinct pages contend only when
// they collide on a stripe — and resident-page Views share the read lock, so
// point reads of the same hot page scale with cores. Recency lives in
// per-frame atomic stamps rather than a list: stamps need no exclusive
// section on the hit path, and eviction picks the oldest unpinned frame of a
// bounded sample, so a miss costs the same whatever the shard holds. The
// shard also lists its dirty frames, so a flush visits those and no others;
// a frame leaves the list when it is written back or freed, so the list
// never outgrows the frame table.
type poolShard struct {
	mu       sync.RWMutex
	capacity int
	frames   map[PageID]*Frame
	victims  budget.Victims[*Frame] // the frames again, for eviction
	dirty    []*Frame
}

func (sh *poolShard) add(f *Frame) {
	sh.frames[f.ID] = f
	sh.victims.Add(f)
}

func (sh *poolShard) remove(f *Frame) {
	delete(sh.frames, f.ID)
	sh.victims.Remove(f)
}

// markDirty adds f to the shard's dirty list unless it is already on it.
func (sh *poolShard) markDirty(f *Frame) {
	if f.dirty {
		return
	}
	f.dirty, f.dirtyAt = true, len(sh.dirty)
	sh.dirty = append(sh.dirty, f)
}

// markClean takes f off the shard's dirty list, if it is on it.
func (sh *poolShard) markClean(f *Frame) {
	if !f.dirty {
		return
	}
	last := len(sh.dirty) - 1
	sh.dirty[f.dirtyAt], sh.dirty[last].dirtyAt = sh.dirty[last], f.dirtyAt
	sh.dirty[last] = nil
	sh.dirty = sh.dirty[:last]
	f.dirty = false
}

// writeBackLocked writes a dirty frame to the pager and marks it clean.
func (bp *BufferPool) writeBackLocked(sh *poolShard, f *Frame) error {
	StampChecksum(f.Data)
	if err := bp.pager.WritePage(f.ID, f.Data); err != nil {
		return err
	}
	sh.markClean(f)
	bp.flushes.Add(1)
	return nil
}

// BufferPool caches pages with pin-count-aware, approximately-LRU eviction
// (LRU over a sample of the shard; exact when the shard is no larger than the
// sample and access is serial). It is safe for concurrent use: the frame
// tables are lock-striped by page id and the traffic counters are atomic. Pin/unpin semantics, checksum-on-miss,
// and flush-before-evict ordering are identical to the single-mutex pool.
type BufferPool struct {
	pager    Pager
	capacity int
	shards   []*poolShard
	budget   *budget.Budget // nil = unaccounted; set before first use

	clock     atomic.Uint64 // recency stamps
	held      atomic.Bool   // a batch is open: see BeginHold
	hold      holdState
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	flushes   atomic.Uint64
}

// holdState is what the pool remembers while a batch is open: the pages it
// allocated, which an abort gives back, and the pages it freed, which only a
// commit gives back. Only the batch's writer touches it (under the store's
// exclusive lock); the mutex keeps the pool safe on its own terms.
type holdState struct {
	mu    sync.Mutex
	fresh map[PageID]struct{}
	freed []PageID
}

// frameOverhead approximates the per-frame bookkeeping bytes beyond the page
// data itself (Frame struct, map entry, LRU element) for budget accounting.
const frameOverhead = 128

// frameCost is the budget charge for one resident frame.
func (bp *BufferPool) frameCost() int64 {
	return int64(bp.pager.PageSize()) + frameOverhead
}

// SetBudget attaches a shared memory budget: every resident frame is charged
// against it, and Fetch/View/NewPage shed cold frames when the pool is over
// its share. Must be called before the pool sees traffic — frames created
// earlier would be uncharged and unbalance the accounting. A nil budget (the
// default) disables accounting.
func (bp *BufferPool) SetBudget(b *budget.Budget) { bp.budget = b }

// NewBufferPool wraps pager with a pool of at most capacity resident pages
// (minimum 4), striped into up to maxPoolShards lock shards.
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	if capacity < 4 {
		capacity = 4
	}
	nshards := capacity / poolShardThreshold
	if nshards > maxPoolShards {
		nshards = maxPoolShards
	}
	if nshards < 1 {
		nshards = 1
	}
	bp := &BufferPool{
		pager:    pager,
		capacity: capacity,
		shards:   make([]*poolShard, nshards),
	}
	per := capacity / nshards
	for i := range bp.shards {
		bp.shards[i] = &poolShard{
			capacity: per,
			frames:   make(map[PageID]*Frame),
		}
	}
	return bp
}

// shard returns the lock stripe owning page id.
func (bp *BufferPool) shard(id PageID) *poolShard {
	if len(bp.shards) == 1 {
		return bp.shards[0]
	}
	// Fibonacci hashing spreads sequentially-allocated page ids evenly.
	h := uint32(id) * 2654435769
	return bp.shards[h>>27%uint32(len(bp.shards))]
}

// Pager returns the underlying pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// PageSize returns the page size of the underlying pager.
func (bp *BufferPool) PageSize() int { return bp.pager.PageSize() }

// UsablePageSize returns the page bytes available to layouts built on the
// pool: the page size minus the reserved checksum trailer.
func (bp *BufferPool) UsablePageSize() int {
	return bp.pager.PageSize() - PageTrailerSize
}

// readThrough copies page id into buf: the resident frame's bytes when the
// pool holds the page, else the pager's, which the pool does not keep — a
// pass over every page leaves the pool's contents and counters as they were.
// The caller keeps writers out of the page (the store's lock).
func (bp *BufferPool) readThrough(id PageID, buf []byte) error {
	sh := bp.shard(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		copy(buf, f.Data)
		sh.mu.Unlock()
		return nil
	}
	sh.mu.Unlock()
	return bp.pager.ReadPage(id, buf)
}

// Shards returns the number of lock stripes (introspection and tests).
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits:      bp.hits.Load(),
		Misses:    bp.misses.Load(),
		Evictions: bp.evictions.Load(),
		Flushes:   bp.flushes.Load(),
	}
}

// ResetStats zeroes the pool counters.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.flushes.Store(0)
}

// Fetch pins the page in memory and returns its frame.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) {
	defer bp.shedForBudget() // after the shard lock is released
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.frames[id]; ok {
		bp.hits.Add(1)
		f.stamp.Store(bp.clock.Add(1))
		f.pins++
		return f, nil
	}
	bp.misses.Add(1)
	f, err := bp.newFrameLocked(sh, id)
	if err != nil {
		return nil, err
	}
	if err := bp.pager.ReadPage(id, f.Data); err != nil {
		bp.dropFrameLocked(sh, id)
		return nil, err
	}
	if err := VerifyChecksum(id, f.Data); err != nil {
		bp.dropFrameLocked(sh, id)
		return nil, err
	}
	return f, nil
}

// View runs fn over the page's bytes under the shard lock, without taking a
// pin: one lock acquisition instead of a Fetch/Unpin pair. This is the
// point-read fast path — fn must be short, must not retain the data slice,
// and must not call back into the pool. A resident page needs only the
// shard READ lock (frames cannot be evicted or mutated while any reader
// holds it — evictions and fills take the write lock), so concurrent point
// reads of the same hot page proceed in parallel; only a miss-fill takes
// the exclusive lock. Residency and checksum-on-miss match Fetch exactly.
func (bp *BufferPool) View(id PageID, fn func(data []byte) error) error {
	sh := bp.shard(id)
	sh.mu.RLock()
	if f, ok := sh.frames[id]; ok {
		bp.hits.Add(1)
		f.stamp.Store(bp.clock.Add(1))
		err := fn(f.Data)
		sh.mu.RUnlock()
		return err
	}
	sh.mu.RUnlock()
	defer bp.shedForBudget() // after the shard lock is released
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.frames[id]
	if ok {
		// Raced with another filler; the frame is resident and valid.
		bp.hits.Add(1)
		f.stamp.Store(bp.clock.Add(1))
	} else {
		bp.misses.Add(1)
		var err error
		f, err = bp.newFrameLocked(sh, id)
		if err != nil {
			return err
		}
		if err := bp.pager.ReadPage(id, f.Data); err != nil {
			bp.dropFrameLocked(sh, id)
			return err
		}
		if err := VerifyChecksum(id, f.Data); err != nil {
			bp.dropFrameLocked(sh, id)
			return err
		}
		// newFrameLocked pins; View's protection is the shard lock itself.
		f.pins = 0
	}
	return fn(f.Data)
}

// NewPage allocates a fresh page and returns it pinned and dirty.
func (bp *BufferPool) NewPage() (*Frame, error) {
	defer bp.shedForBudget() // after the shard lock is released
	id, err := bp.pager.Allocate()
	if err != nil {
		return nil, err
	}
	sh := bp.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, err := bp.newFrameLocked(sh, id)
	if err != nil {
		bp.pager.Free(id)
		return nil, err
	}
	sh.markDirty(f)
	if bp.held.Load() {
		bp.hold.mu.Lock()
		bp.hold.fresh[id] = struct{}{}
		bp.hold.mu.Unlock()
	}
	return f, nil
}

// newFrameLocked makes room in sh and installs a pinned frame for id. A fill
// that evicts takes over its victim's page buffer, so a pool at capacity
// allocates no page memory per miss.
func (bp *BufferPool) newFrameLocked(sh *poolShard, id PageID) (*Frame, error) {
	var data []byte
	if len(sh.frames) >= sh.capacity {
		var err error
		if data, err = bp.evictLocked(sh); err != nil {
			return nil, err
		}
	}
	if data == nil {
		data = make([]byte, bp.pager.PageSize())
	}
	f := &Frame{ID: id, Data: data, pins: 1}
	f.stamp.Store(bp.clock.Add(1))
	sh.add(f)
	bp.budget.Charge(budget.Pool, bp.frameCost())
	return f, nil
}

// dropFrameLocked removes a frame that never became valid (read or checksum
// failure after newFrameLocked), reversing its budget charge.
func (bp *BufferPool) dropFrameLocked(sh *poolShard, id PageID) {
	sh.remove(sh.frames[id])
	bp.budget.Discharge(budget.Pool, bp.frameCost())
}

// evictLocked drops an unpinned frame — the least recently used of a bounded
// sample (budget.Victims) — flushing it first if dirty, and returns its page
// buffer for the caller to reuse: the flush is done before anyone can write
// into it. Caller holds sh.mu exclusively, which is also what keeps View's
// readers (shard read lock, no pin) off the buffer. While a batch holds the
// pool only clean frames go; with none, it returns a nil buffer and the
// shard grows past its capacity instead.
func (bp *BufferPool) evictLocked(sh *poolShard) ([]byte, error) {
	held := bp.held.Load()
	if held && len(sh.dirty) >= len(sh.frames) {
		return nil, nil
	}
	f, ok := sh.victims.Oldest(func(c *Frame) (uint64, bool) {
		return c.stamp.Load(), c.pins == 0 && !(held && c.dirty)
	})
	if !ok {
		if held {
			return nil, nil
		}
		return nil, ErrPoolFull
	}
	if f.dirty {
		if err := bp.writeBackLocked(sh, f); err != nil {
			return nil, err
		}
	}
	sh.remove(f)
	bp.budget.Discharge(budget.Pool, bp.frameCost())
	bp.evictions.Add(1)
	data := f.Data
	f.Data = nil // a holder that outlived its pin faults instead of reading another page
	return data, nil
}

// shedForBudget drops cold frames while the pool is over its budget share.
// Runs after the caller has released its shard lock: eviction here takes
// each shard lock in turn, so it must never run under one. Dirty frames are
// written back by evictLocked as usual; a write-back failure (degraded
// store) stops the sweep for that shard rather than spinning.
func (bp *BufferPool) shedForBudget() {
	b := bp.budget
	if b == nil || !b.NeedEvict(budget.Pool) {
		return
	}
	excess := b.Excess(budget.Pool)
	for _, sh := range bp.shards {
		if excess <= 0 {
			return
		}
		sh.mu.Lock()
		for excess > 0 {
			if data, err := bp.evictLocked(sh); err != nil || data == nil {
				break
			}
			b.NoteEviction(budget.Pool)
			excess -= bp.frameCost()
		}
		sh.mu.Unlock()
	}
}

// Unpin releases one pin. If dirty is true the frame is marked for
// write-back before eviction.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) error {
	sh := bp.shard(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pins <= 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, f.ID)
	}
	if dirty {
		sh.markDirty(f)
	}
	f.pins--
	if f.pins == 0 {
		f.stamp.Store(bp.clock.Add(1))
	}
	return nil
}

// FreePage removes the page from the pool and returns it to the pager. The
// page must not be pinned (beyond the caller's single pin, which is
// consumed). While a batch holds the pool, a page the batch did not allocate
// goes back to the pager only when the batch commits: an abort still needs
// its old contents.
func (bp *BufferPool) FreePage(f *Frame) error {
	sh := bp.shard(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pins != 1 {
		return fmt.Errorf("%w: page %d has %d pins", ErrDoubleFree, f.ID, f.pins)
	}
	f.pins = 0
	sh.markClean(f) // a freed page's contents are never written
	sh.remove(f)
	bp.budget.Discharge(budget.Pool, bp.frameCost())
	if bp.held.Load() {
		bp.hold.mu.Lock()
		defer bp.hold.mu.Unlock()
		if _, ok := bp.hold.fresh[f.ID]; !ok {
			bp.hold.freed = append(bp.hold.freed, f.ID)
			return nil
		}
		delete(bp.hold.fresh, f.ID)
	}
	return bp.pager.Free(f.ID)
}

// BeginHold opens a batch: until EndHold, no dirty frame is written back to
// the pager (a shard with no clean frame to evict grows past its capacity),
// pages freed are kept from the pager, and pages allocated are remembered.
// The pager therefore holds exactly the state from before the batch until it
// ends: no steal, so an abort has nothing to undo. The caller must exclude
// every other user of the pool for the whole batch.
func (bp *BufferPool) BeginHold() {
	bp.hold.mu.Lock()
	bp.hold.fresh = make(map[PageID]struct{})
	bp.hold.freed = nil
	bp.hold.mu.Unlock()
	bp.held.Store(true)
}

// EndHold closes a batch. On commit the pages it freed go back to the pager
// and the pool is trimmed to its capacity, writing back what it evicts; the
// caller then writes back the rest (FlushAll). On abort every frame is
// dropped unwritten and the pages the batch allocated go back to the pager,
// which then holds the state from before the batch.
func (bp *BufferPool) EndHold(commit bool) error {
	bp.held.Store(false)
	bp.hold.mu.Lock()
	fresh, freed := bp.hold.fresh, bp.hold.freed
	bp.hold.fresh, bp.hold.freed = nil, nil
	bp.hold.mu.Unlock()
	if !commit {
		bp.Discard()
		freed = freed[:0] // the batch's frees never happened
		for id := range fresh {
			freed = append(freed, id)
		}
	}
	for _, id := range freed {
		if err := bp.pager.Free(id); err != nil {
			return err
		}
	}
	if !commit {
		return nil
	}
	for _, sh := range bp.shards {
		var err error
		sh.mu.Lock()
		for err == nil && len(sh.frames) > sh.capacity {
			_, err = bp.evictLocked(sh)
		}
		sh.mu.Unlock()
		if err != nil && !errors.Is(err, ErrPoolFull) { // pinned frames stay
			return err
		}
	}
	return nil
}

// Discard drops every frame without writing it back, so the next fetch of
// any page reads the pager's copy. The caller must exclude every other user
// of the pool.
func (bp *BufferPool) Discard() {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for id := range sh.frames {
			bp.dropFrameLocked(sh, id)
		}
		clear(sh.dirty)
		sh.dirty = sh.dirty[:0]
		sh.mu.Unlock()
	}
}

// FlushAll writes back every dirty frame, visiting only the shards' dirty
// lists. Pinned frames are flushed too (their contents at this instant).
// Shards are drained one at a time; callers needing a consistent flush point
// (WAL commit) already exclude writers.
func (bp *BufferPool) FlushAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for len(sh.dirty) > 0 {
			if err := bp.writeBackLocked(sh, sh.dirty[len(sh.dirty)-1]); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// Scrub verifies the checksum of every page the pager holds, reading the
// pager's copy directly (cache bypassed). Pages resident and dirty in the
// pool are skipped — their pager copy is legitimately stale until the next
// flush — as are freed and out-of-bounds ids. One error per corrupt page is
// returned, each wrapping ErrCorruptPage.
func (bp *BufferPool) Scrub() []error {
	type extenter interface{ MaxPageID() PageID }
	ext, ok := bp.pager.(extenter)
	if !ok {
		return nil
	}
	max := ext.MaxPageID()
	buf := make([]byte, bp.pager.PageSize())
	var errs []error
	for id := PageID(1); id <= max; id++ {
		sh := bp.shard(id)
		sh.mu.Lock()
		f, resident := sh.frames[id]
		skip := resident && f.dirty
		sh.mu.Unlock()
		if skip {
			continue
		}
		if err := bp.pager.ReadPage(id, buf); err != nil {
			if errors.Is(err, ErrFreedPage) || errors.Is(err, ErrPageBounds) {
				continue
			}
			errs = append(errs, err)
			continue
		}
		if err := VerifyChecksum(id, buf); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// PinnedCount returns the number of currently pinned frames (for tests and
// leak checks).
func (bp *BufferPool) PinnedCount() int {
	n := 0
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Resident returns the number of frames in the pool (for tests).
func (bp *BufferPool) Resident() int {
	n := 0
	for _, sh := range bp.shards {
		sh.mu.RLock()
		n += len(sh.frames)
		sh.mu.RUnlock()
	}
	return n
}

// Close flushes and releases the pool and the underlying pager.
func (bp *BufferPool) Close() error {
	if err := bp.FlushAll(); err != nil {
		return err
	}
	return bp.pager.Close()
}

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/budget"
)

// The partial (lazy) index — Section 5 of the paper.
//
// It is "a combination between a real index and a cache": every successful
// locate of a node's begin or end token deposits the exact (range, byte
// offset, token index) here, so a repeated lookup of the same logical
// position skips the range scan entirely. Capacity is bounded with sampled-LRU
// eviction, and entries invalidate lazily: each entry remembers the version
// of the range it points into, and a version mismatch (the range was split,
// merged, rewritten or deleted) makes the entry a miss. Nothing is updated
// eagerly — laziness all the way down.
//
// The index is safe for concurrent use: entries are lock-striped by node id
// (each shard its own map and RWMutex) so lazy insertions from readers
// holding the store's shared lock contend only per stripe, and the counters
// are atomic. Lookups — the hot path of every warm read — take only the
// shard read lock and record recency with one atomic stamp; recency is
// therefore approximate under concurrency, and eviction takes the oldest stamp
// of a bounded sample of the shard. Lookups copy the
// entry out under the read lock — callers never hold pointers into a shard.

// partialEntry caches the location of a node's begin token and, when known,
// its matching end token. Callers receive copies; the canonical entry lives
// inside a shard.
type partialEntry struct {
	id NodeID

	beginRange RangeID
	beginVer   uint32
	beginByte  int32
	beginTok   int32

	endStart       NodeID // the end range's start id, its key in the range index
	hasEnd         bool
	endRange       RangeID
	endVer         uint32
	endByte        int32
	endTok         int32
	endNodesBefore int32 // node-start tokens before the end token in its range
	endLen         int32 // encoded length of the end token

	// Structural extension (paper §9): parent links are stable for the
	// lifetime of a node, so no version stamp is needed beyond the begin
	// validity gate.
	hasParent bool
	parentID  NodeID
}

// beginRange returns the range holding e's node id (and so its begin
// token) when that range is as it was when e was learned.
func (s *Store) beginRange(e partialEntry) *rangeInfo {
	if ri, ok := s.rangeOf(e.id); ok && ri.id == e.beginRange && ri.version == e.beginVer {
		return ri
	}
	return nil
}

// endsIn reports whether the entry holds the node's end position and it lies
// in ri as ri is now.
func (e partialEntry) endsIn(ri *rangeInfo) bool {
	return e.hasEnd && e.endLen > 0 && e.endRange == ri.id && e.endVer == ri.version
}

// boxedEntry is the shard-resident form: the entry plus its recency stamp.
type boxedEntry struct {
	budget.VictimSlot
	partialEntry
	used atomic.Uint64 // last-use stamp from the index clock
}

type partialStats struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// Shard geometry: stay single-sharded for the small capacities tests pin
// exact LRU behavior on; stripe up to 16 ways for production capacities.
const (
	maxPartialShards      = 16
	partialShardThreshold = 64
)

type partialShard struct {
	mu       sync.RWMutex
	capacity int
	entries  map[NodeID]*boxedEntry
	victims  budget.Victims[*boxedEntry] // the entries again, for eviction
}

type partialIndex struct {
	shards []*partialShard
	clock  atomic.Uint64 // recency stamps
	stats  partialStats
	budget *budget.Budget // nil = unaccounted
}

// partialEntryCost approximates one resident entry's bytes for budget
// accounting: the boxed entry plus its map slot and LRU element.
const partialEntryCost = 192

func newPartialIndex(capacity int, b *budget.Budget) *partialIndex {
	if capacity <= 0 {
		capacity = 1
	}
	nshards := capacity / partialShardThreshold
	if nshards > maxPartialShards {
		nshards = maxPartialShards
	}
	if nshards < 1 {
		nshards = 1
	}
	px := &partialIndex{shards: make([]*partialShard, nshards), budget: b}
	per := capacity / nshards
	for i := range px.shards {
		px.shards[i] = &partialShard{
			capacity: per,
			entries:  make(map[NodeID]*boxedEntry, per),
		}
	}
	return px
}

// shedForBudget drops LRU entries while the partial index is over its budget
// share. Called after the caller released its shard lock; takes each shard
// lock in turn.
func (px *partialIndex) shedForBudget() {
	b := px.budget
	if b == nil || !b.NeedEvict(budget.Partial) {
		return
	}
	excess := b.Excess(budget.Partial)
	for _, sh := range px.shards {
		if excess <= 0 {
			return
		}
		sh.mu.Lock()
		for excess > 0 {
			v := oldestLocked(sh)
			if v == nil {
				break
			}
			sh.drop(v)
			b.Discharge(budget.Partial, partialEntryCost)
			b.NoteEviction(budget.Partial)
			excess -= partialEntryCost
		}
		sh.mu.Unlock()
	}
}

func (px *partialIndex) shard(id NodeID) *partialShard {
	if len(px.shards) == 1 {
		return px.shards[0]
	}
	h := uint64(id) * 0x9e3779b97f4a7c15
	return px.shards[h>>59%uint64(len(px.shards))]
}

func (px *partialIndex) len() int {
	n := 0
	for _, sh := range px.shards {
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// oldestLocked returns the shard's eviction victim: the least recently used of
// a bounded sample (budget.Victims), so an insert into a full shard costs the
// same whatever the shard holds. Caller holds sh.mu exclusively.
func oldestLocked(sh *partialShard) *boxedEntry {
	v, _ := sh.victims.Oldest(func(b *boxedEntry) (uint64, bool) { return b.used.Load(), true })
	return v
}

// drop removes b from the shard (sh.mu held exclusively).
func (sh *partialShard) drop(b *boxedEntry) {
	delete(sh.entries, b.id)
	sh.victims.Remove(b)
}

func (px *partialIndex) hit()  { px.stats.hits.Add(1) }
func (px *partialIndex) miss() { px.stats.misses.Add(1) }

// lookup returns a copy of the entry for id if present (without validity
// checking — the store validates versions since it owns the range table).
// Read-locked: mutators hold the exclusive lock, so the copy is consistent,
// and the recency stamp is atomic.
func (px *partialIndex) lookup(id NodeID) (partialEntry, bool) {
	sh := px.shard(id)
	sh.mu.RLock()
	b, ok := sh.entries[id]
	var e partialEntry
	if ok {
		e = b.partialEntry
	}
	sh.mu.RUnlock()
	if !ok {
		return partialEntry{}, false
	}
	b.used.Store(px.clock.Add(1))
	return e, true
}

// forgetBegin forgets the begin location of the entry for id if its begin
// stamp still matches the stale copy the caller observed; a concurrent
// reader may have re-learned a fresh location in the meantime, and that
// survives. The end location and the parent link stay: each is checked on
// its own when used (the end against its own range's version; the parent
// never changes), so a node whose begin's range was split or merged — the
// root's, say, under appends — re-learns its begin and keeps its end
// rather than scanning its whole subtree for it again. Range ids start at
// 1, so a begin range of 0 validates against nothing until recordBegin.
func (px *partialIndex) forgetBegin(stale partialEntry) {
	sh := px.shard(stale.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.entries[stale.id]
	if !ok || stale.beginRange == 0 || b.beginRange != stale.beginRange || b.beginVer != stale.beginVer {
		return
	}
	b.beginRange = 0
	px.stats.invalidations.Add(1)
}

// ensureLocked returns the boxed entry for id, creating (and LRU-evicting)
// as needed. Caller holds sh.mu.
func (px *partialIndex) ensureLocked(sh *partialShard, id NodeID) *boxedEntry {
	if b, ok := sh.entries[id]; ok {
		b.used.Store(px.clock.Add(1))
		return b
	}
	if len(sh.entries) >= sh.capacity {
		if v := oldestLocked(sh); v != nil {
			sh.drop(v)
			px.budget.Discharge(budget.Partial, partialEntryCost)
			px.stats.evictions.Add(1)
		}
	}
	b := &boxedEntry{}
	b.id = id
	b.used.Store(px.clock.Add(1))
	sh.entries[id] = b
	sh.victims.Add(b)
	px.budget.Charge(budget.Partial, partialEntryCost)
	return b
}

// recordBegin memorizes the begin-token location of id.
func (px *partialIndex) recordBegin(id NodeID, rng RangeID, ver uint32, byteOff, tokIdx int) {
	defer px.shedForBudget() // after the shard lock is released
	sh := px.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := px.ensureLocked(sh, id)
	b.beginRange, b.beginVer = rng, ver
	b.beginByte, b.beginTok = int32(byteOff), int32(tokIdx)
}

// recordEnd memorizes the end-token location of id in ri, with the
// node-start count before the end token and the end token's encoded length
// (the warm fast path of ScanNode needs both).
func (px *partialIndex) recordEnd(id NodeID, ri *rangeInfo, byteOff, tokIdx int, nodesBefore, endLen int32) {
	defer px.shedForBudget() // after the shard lock is released
	sh := px.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := px.ensureLocked(sh, id)
	b.hasEnd = true
	b.endRange, b.endVer, b.endStart = ri.id, ri.version, ri.start
	b.endByte, b.endTok = int32(byteOff), int32(tokIdx)
	b.endNodesBefore = nodesBefore
	b.endLen = endLen
}

// setParent memorizes the (stable) parent link of id.
func (px *partialIndex) setParent(id, parent NodeID) {
	defer px.shedForBudget() // after the shard lock is released
	sh := px.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := px.ensureLocked(sh, id)
	b.hasParent = true
	b.parentID = parent
}

// removeNode forgets id entirely (used when the node is deleted).
func (px *partialIndex) removeNode(id NodeID) {
	sh := px.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b, ok := sh.entries[id]; ok {
		sh.drop(b)
		px.budget.Discharge(budget.Partial, partialEntryCost)
	}
}

// reset clears all entries (bulk operations).
func (px *partialIndex) reset() {
	for _, sh := range px.shards {
		sh.mu.Lock()
		px.budget.Discharge(budget.Partial, int64(len(sh.entries))*partialEntryCost)
		sh.entries = make(map[NodeID]*boxedEntry, sh.capacity)
		sh.victims.Reset()
		sh.mu.Unlock()
	}
}

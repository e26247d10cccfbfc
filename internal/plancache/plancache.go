// Package plancache implements a keyed, size-bounded, concurrency-safe cache
// for compiled query plans. Parsing and planning an XPath/XQuery expression
// costs far more than executing it on a warm store, so repeated queries —
// the dominant shape of server traffic — should pay it once. The callers
// choose the keys: XPath keys a plan by its shape (its source with the string
// literals emptied), so one entry serves every literal; XQuery by its text.
//
// The cache is sharded (lock per shard, like the partial index) and
// accounted against the shared memory budget under the Plans class: each
// entry carries a caller-estimated byte cost, and the cache evicts in
// (sampled) least-recently-used order both on a hard entry cap and when the
// budget signals pressure. Values are opaque (any) so the core store can own the
// cache without importing the query packages that populate it.
//
// The hit path is the store's hottest query-side lock, so it is read-only:
// lookups take the shard RLock and record recency with one atomic stamp —
// no list surgery, no exclusive section. Recency is therefore approximate:
// a clock stamp compared at eviction time, not a maintained order, and the
// victim is the oldest of a sample of budget.VictimSample entries — exact LRU
// for a shard that small, and an eviction that costs the same whatever the
// shard holds.
package plancache

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
)

const shardCount = 8

// entryOverhead approximates the per-entry bookkeeping bytes (map slot,
// entry struct) added to the caller's cost estimate.
const entryOverhead = 128

// Cache is a sharded, approximately-LRU cache of compiled plans.
type Cache struct {
	shards [shardCount]shard
	// maxPerShard bounds each shard's entry count (maxEntries/shardCount,
	// at least 1).
	maxPerShard int
	bud         *budget.Budget

	clock                   atomic.Uint64 // recency stamps
	hits, misses, evictions atomic.Uint64
}

type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	victims budget.Victims[*entry] // the entries again, for eviction
	bytes   int64
}

type entry struct {
	budget.VictimSlot
	key  string
	val  any
	cost int64
	used atomic.Uint64 // last-use stamp from the cache clock
}

// New returns a cache bounded to maxEntries compiled plans (values plus an
// estimated cost), charged to bud's Plans class. maxEntries <= 0 returns nil:
// a nil *Cache is a valid, always-missing cache.
func New(maxEntries int, bud *budget.Budget) *Cache {
	if maxEntries <= 0 {
		return nil
	}
	per := maxEntries / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{maxPerShard: per, bud: bud}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
	}
	return c
}

// shardSeed seeds shardFor, per process: placement need not repeat across
// runs, as eviction's sampling already does not.
var shardSeed = maphash.MakeSeed()

// shardFor picks key's shard with the runtime's string hash: every query
// hashes its key (a few dozen bytes) on every lookup.
func shardFor(key string) uint32 {
	return uint32(maphash.String(shardSeed, key) % shardCount)
}

// Get returns the cached plan for key, bumping its recency. The value is
// read under the shard RLock (Put may replace it concurrently); the recency
// stamp is atomic and needs no lock at all.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[shardFor(key)]
	sh.mu.RLock()
	return c.found(sh, sh.entries[key])
}

// GetBytes is Get for a key held in a byte slice, which a lookup neither
// copies nor keeps: a caller can build keys in a buffer of its own.
func (c *Cache) GetBytes(key []byte) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[maphash.Bytes(shardSeed, key)%shardCount]
	sh.mu.RLock()
	return c.found(sh, sh.entries[string(key)])
}

// found ends a lookup that met e (nil: no entry) under sh's read lock.
func (c *Cache) found(sh *shard, e *entry) (any, bool) {
	var v any
	if e != nil {
		v = e.val
	}
	sh.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(c.clock.Add(1))
	c.hits.Add(1)
	return v, true
}

// Put stores a plan under key with an estimated cost in bytes. An existing
// entry for the key is replaced. Budget eviction runs at the caller's safe
// point, after the shard lock is released.
func (c *Cache) Put(key string, val any, cost int64) { c.put(key, val, cost, false, nil) }

// Replace is Put only while key still holds old (nil: no entry) — compared
// with ==, so the values under key must be comparable — and reports whether it
// stored val: of concurrent callers that read the same old, one wins.
func (c *Cache) Replace(key string, old, val any, cost int64) bool {
	return c.put(key, val, cost, true, old)
}

func (c *Cache) put(key string, val any, cost int64, cas bool, old any) bool {
	if c == nil {
		return false
	}
	cost += entryOverhead
	sh := &c.shards[shardFor(key)]
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if cas && (ok && e.val != old || !ok && old != nil) {
		sh.mu.Unlock()
		return false
	}
	delta := cost
	if ok {
		delta -= e.cost
		e.val, e.cost = val, cost
	} else {
		e = &entry{key: key, val: val, cost: cost}
		sh.entries[key] = e
		sh.victims.Add(e)
	}
	e.used.Store(c.clock.Add(1))
	sh.bytes += delta
	c.bud.Charge(budget.Plans, delta)
	// Capacity eviction under the shard lock: the cap is per shard, so only
	// this shard can be over it.
	for len(sh.entries) > c.maxPerShard {
		c.evictOldestLocked(sh)
	}
	sh.mu.Unlock()
	c.maybeEvictForBudget(sh) // a replacement can outgrow the share too
	return true
}

// evictOldestLocked removes sh's least recently used entry of a bounded
// sample (budget.Victims), as the buffer pool and the Partial Index do (sh.mu
// held exclusively).
func (c *Cache) evictOldestLocked(sh *shard) {
	victim, ok := sh.victims.Oldest(func(e *entry) (uint64, bool) { return e.used.Load(), true })
	if !ok {
		return
	}
	delete(sh.entries, victim.key)
	sh.victims.Remove(victim)
	sh.bytes -= victim.cost
	c.bud.Discharge(budget.Plans, victim.cost)
	c.evictions.Add(1)
}

// maybeEvictForBudget drains this shard while the budget reports pressure on
// the Plans class — the same poll-at-safe-point discipline the partial index
// and checkpoint table follow.
func (c *Cache) maybeEvictForBudget(sh *shard) {
	if !c.bud.NeedEvict(budget.Plans) {
		return
	}
	// Aim to free this shard's slice of the global excess, at least one
	// entry, so concurrent shards converge without one shard bearing all of
	// the drain.
	target := c.bud.Excess(budget.Plans) / shardCount
	freed := int64(0)
	sh.mu.Lock()
	for len(sh.entries) > 0 && (freed == 0 || freed < target) {
		before := sh.bytes
		c.evictOldestLocked(sh)
		freed += before - sh.bytes
	}
	sh.mu.Unlock()
	if freed > 0 {
		c.bud.NoteEviction(budget.Plans)
	}
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Entries   int
	Bytes     int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Snapshot returns current cache statistics (zero value for a nil cache).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return st
}

// BytesUnder returns the bytes charged for entries whose key starts with
// prefix: the cache is shared by kinds of entry told apart that way. It walks
// every entry, so it is for a stats call, not a hot path.
func (c *Cache) BytesUnder(prefix string) (n int64) {
	if c == nil {
		return 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if strings.HasPrefix(k, prefix) {
				n += e.cost
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Share returns the bytes the memory budget allows the cache as a whole (0:
// unlimited) — an entry costing more would be evicted as soon as it was put.
func (c *Cache) Share() int64 {
	if c == nil {
		return 0
	}
	return c.bud.Share(budget.Plans)
}

// Reset drops every entry and discharges the budget (used on store close).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.bud.Discharge(budget.Plans, sh.bytes)
		sh.bytes = 0
		sh.entries = make(map[string]*entry)
		sh.victims.Reset()
		sh.mu.Unlock()
	}
}

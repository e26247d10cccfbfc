// Package budget implements a process-wide memory budget shared by the
// store's caches: the buffer pool, the partial index, and the replay
// checkpoint table. The paper's partial index is already "a budgeted index
// with a replacement policy" (Stonebraker's partial indexes; Mahboubi &
// Darmont frame XML index memory the same way) — this package extends that
// discipline from one cache to every cache in the process.
//
// Design: accounting is deliberately decoupled from reclamation. Charge and
// Discharge only move atomic counters — they never call back into a
// consumer, so they are safe to invoke while holding any cache-internal
// lock. Consumers poll NeedEvict/Excess at their own safe points (after
// releasing their shard locks) and evict from their own LRU structures.
// This one-way dependency makes budget-driven eviction deadlock-free by
// construction.
//
// The budget is split into weighted class shares. When total usage exceeds
// the limit, at least one class necessarily exceeds its share (the shares
// sum to the whole), and that class is the one told to evict — a class
// under its share is never punished for another's appetite.
package budget

import "sync/atomic"

// Class identifies one budgeted consumer.
type Class int

const (
	// Pool is the buffer pool's page frames.
	Pool Class = iota
	// Partial is the partial (lazy) index's entries.
	Partial
	// Checkpoints is the replay-checkpoint table's runs.
	Checkpoints
	// Plans is the compiled query-plan cache.
	Plans

	numClasses
)

func (c Class) String() string {
	switch c {
	case Pool:
		return "pool"
	case Partial:
		return "partial"
	case Checkpoints:
		return "checkpoints"
	case Plans:
		return "plans"
	}
	return "unknown"
}

// shareNum/shareDen give each class its fraction of the limit. The pool
// dominates (page frames are the working set); the partial index, the
// checkpoint table and the plan cache split the rest. Shares sum to shareDen
// so over-limit totals always implicate at least one over-share class.
var shareNum = [numClasses]int64{55, 22, 13, 10}

const shareDen = 100

// evictTarget is the fraction of a class's share eviction drains down to
// (percent). Stopping below the share gives hysteresis: one new entry does
// not immediately re-trigger a sweep.
const evictTarget = 90

// Budget is a fixed memory limit with per-class weighted accounting. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// *Budget means "unlimited" and makes every operation a no-op).
type Budget struct {
	limit int64
	used  [numClasses]atomic.Int64
	total atomic.Int64

	evictions [numClasses]atomic.Uint64
}

// New returns a budget of limit bytes, or nil when limit <= 0 (unlimited).
func New(limit int64) *Budget {
	if limit <= 0 {
		return nil
	}
	return &Budget{limit: limit}
}

// Limit returns the configured byte limit (0 for a nil budget).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Charge records n bytes acquired by class c. It never blocks and never
// reclaims — consumers poll NeedEvict at their own safe points.
func (b *Budget) Charge(c Class, n int64) {
	if b == nil || n == 0 {
		return
	}
	b.used[c].Add(n)
	b.total.Add(n)
}

// Discharge records n bytes released by class c.
func (b *Budget) Discharge(c Class, n int64) {
	if b == nil || n == 0 {
		return
	}
	b.used[c].Add(-n)
	b.total.Add(-n)
}

// Share returns class c's slice of the limit in bytes (0 for a nil budget:
// unlimited).
func (b *Budget) Share(c Class) int64 {
	if b == nil {
		return 0
	}
	return b.limit * shareNum[c] / shareDen
}

// NeedEvict reports whether class c should evict now: the budget as a whole
// is over its limit and c is over its own share. Pigeonhole guarantees that
// an over-limit total always leaves at least one class with NeedEvict true.
func (b *Budget) NeedEvict(c Class) bool {
	if b == nil {
		return false
	}
	return b.total.Load() > b.limit && b.used[c].Load() > b.Share(c)
}

// Excess returns how many bytes class c should free to drop back to
// evictTarget percent of its share (0 when no eviction is needed). Callers
// evict approximately this much from their own LRU and stop.
func (b *Budget) Excess(c Class) int64 {
	if b == nil || b.total.Load() <= b.limit {
		return 0
	}
	target := b.Share(c) * evictTarget / 100
	excess := b.used[c].Load() - target
	if excess < 0 {
		return 0
	}
	return excess
}

// NoteEviction counts one budget-pressure eviction sweep by class c
// (distinct from capacity-driven LRU evictions, which the caches count
// themselves).
func (b *Budget) NoteEviction(c Class) {
	if b == nil {
		return
	}
	b.evictions[c].Add(1)
}

// Stats is a snapshot of budget accounting.
type Stats struct {
	Limit           int64  // configured byte limit (0 = unlimited)
	Used            int64  // total bytes charged across all classes
	PoolBytes       int64  // buffer-pool frames
	PartialBytes    int64  // partial-index entries
	CheckpointBytes int64  // replay-checkpoint runs
	PlanBytes       int64  // compiled query-plan cache entries
	Evictions       uint64 // budget-pressure eviction sweeps (all classes)
}

// Snapshot returns the current accounting (zero value for a nil budget).
func (b *Budget) Snapshot() Stats {
	if b == nil {
		return Stats{}
	}
	return Stats{
		Limit:           b.limit,
		Used:            b.total.Load(),
		PoolBytes:       b.used[Pool].Load(),
		PartialBytes:    b.used[Partial].Load(),
		CheckpointBytes: b.used[Checkpoints].Load(),
		PlanBytes:       b.used[Plans].Load(),
		Evictions: b.evictions[Pool].Load() +
			b.evictions[Partial].Load() +
			b.evictions[Checkpoints].Load() +
			b.evictions[Plans].Load(),
	}
}

package core

import (
	"sort"
	"sync"

	"repro/internal/budget"
	"repro/internal/pagestore"
)

// Intra-range replay checkpoints — bounding the paper's coarse-range replay
// cost (Table 5's 33 kb/s random-read row).
//
// A coarse range makes every cold locate replay tokens from the range head
// until the target id's begin token. The checkpoint table memoizes the scan
// state every K tokens as a side effect of those replays: a later locate of
// any id in the same range resumes from the nearest checkpoint at or before
// the target instead of the head, so replay work per lookup drops from
// O(range) to O(K) once a range has been walked once.
//
// A checkpoint names a byte offset; for a range spilled over several pages
// the table also keeps the chain directory (pagestore.Chain) that turns the
// offset into a page without walking the overflow chain from its head. It is
// learned the same way — by the reads that walk the chain — and lives and
// dies with the checkpoints.
//
// Like the partial index, the table is a cache, not an index: memory-only,
// never persisted, rebuilt lazily, and invalidated by the range version
// stamp — a split, merge or rewrite bumps the version and the stale entry
// becomes a miss. The table is lock-striped by range id so concurrent
// readers (holding the store's shared lock) can consult and publish
// checkpoints without serializing.

const (
	// checkpointInterval is K: tokens between checkpoints.
	checkpointInterval = 256
	// checkpointMinTokens gates memoization to ranges long enough for a
	// resume to actually save work.
	checkpointMinTokens = 2 * checkpointInterval
	// ckptShardCount stripes the table; maxCkptRangesPerShard bounds the
	// memoized ranges per stripe (table-wide: 16×64 ranges, each at most
	// toks/K checkpoints of 16 bytes and one 4-byte id per overflow page).
	ckptShardCount        = 16
	maxCkptRangesPerShard = 64
)

// replayCheckpoint is one resumable scan state: the scan sits just before
// the token at byteOff (token index tokIdx), and the next node-starting
// token will be assigned id `next`.
type replayCheckpoint struct {
	next    NodeID
	tokIdx  int32
	byteOff int32
}

// rangeCheckpoints is what the table remembers about one range, stamped with
// the range version it was learned against. The cps slice is immutable once
// published; the chain directory fills in place (it is safe for concurrent
// use) and is nil until a read goes past the first page of a spilled range.
type rangeCheckpoints struct {
	version uint32
	cps     []replayCheckpoint
	chain   *pagestore.Chain
}

// cost approximates the entry's bytes for budget accounting: 16 bytes per
// checkpoint, 4 per chain page, plus map-slot overhead.
func (rc rangeCheckpoints) cost() int64 {
	n := int64(len(rc.cps))*16 + 64
	if rc.chain != nil {
		n += int64(rc.chain.Pages())*4 + 32
	}
	return n
}

type ckptShard struct {
	mu sync.Mutex
	m  map[RangeID]rangeCheckpoints
}

type checkpointTable struct {
	shards [ckptShardCount]ckptShard
	budget *budget.Budget // nil = unaccounted
}

func newCheckpointTable(b *budget.Budget) *checkpointTable {
	t := &checkpointTable{budget: b}
	for i := range t.shards {
		t.shards[i].m = make(map[RangeID]rangeCheckpoints)
	}
	return t
}

// shedForBudget drops memoized runs while the table is over its budget
// share. Called after publish has released its shard lock.
func (t *checkpointTable) shedForBudget() {
	b := t.budget
	if b == nil || !b.NeedEvict(budget.Checkpoints) {
		return
	}
	excess := b.Excess(budget.Checkpoints)
	for i := range t.shards {
		if excess <= 0 {
			return
		}
		sh := &t.shards[i]
		sh.mu.Lock()
		for rng, rc := range sh.m {
			if excess <= 0 {
				break
			}
			delete(sh.m, rng)
			cost := rc.cost()
			b.Discharge(budget.Checkpoints, cost)
			b.NoteEviction(budget.Checkpoints)
			excess -= cost
		}
		sh.mu.Unlock()
	}
}

// reset drops every memoized run, giving its memory back to the budget.
func (t *checkpointTable) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, rc := range sh.m {
			t.budget.Discharge(budget.Checkpoints, rc.cost())
		}
		clear(sh.m)
		sh.mu.Unlock()
	}
}

func (t *checkpointTable) shard(rng RangeID) *ckptShard {
	h := uint32(rng) * 2654435769
	return &t.shards[h>>28%ckptShardCount]
}

// get returns what is published for rng at version ver (the zero value when
// nothing is, or only for another version). The returned run is immutable —
// callers must not append to it in place.
func (t *checkpointTable) get(rng RangeID, ver uint32) rangeCheckpoints {
	sh := t.shard(rng)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rc, ok := sh.m[rng]
	if !ok || rc.version != ver {
		return rangeCheckpoints{}
	}
	return rc
}

// publish merges what a reader learned about rng at version ver into the
// table and returns the entry that stands. Two readers may race: of two
// same-version runs the longer wins (it scanned further), and the first chain
// directory published stays (both fill with the same page ids; a loser's few
// entries are learned again). An entry for another version is replaced whole.
// The caller must not retain or mutate cps after publishing.
func (t *checkpointTable) publish(rng RangeID, ver uint32, cps []replayCheckpoint, chain *pagestore.Chain) rangeCheckpoints {
	defer t.shedForBudget() // after the shard lock is released
	sh := t.shard(rng)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rc := rangeCheckpoints{version: ver, cps: cps, chain: chain}
	if old, ok := sh.m[rng]; ok {
		if old.version == ver {
			if len(old.cps) >= len(cps) {
				rc.cps = old.cps
			}
			if old.chain != nil {
				rc.chain = old.chain
			}
		}
		t.budget.Discharge(budget.Checkpoints, old.cost())
	} else if len(sh.m) >= maxCkptRangesPerShard {
		// Bound memory: drop an arbitrary memoized range. Random-ish
		// eviction is fine for a cache that rebuilds in one scan.
		for k, v := range sh.m {
			t.budget.Discharge(budget.Checkpoints, v.cost())
			delete(sh.m, k)
			break
		}
	}
	sh.m[rng] = rc
	t.budget.Charge(budget.Checkpoints, rc.cost())
	return rc
}

// resumeFrom returns the last checkpoint at or before target (the next
// node-start id must not have passed it), plus the checkpoint prefix up to
// and including it. The prefix aliases the published slice and is shared
// with concurrent readers: a caller extending the run must clone it before
// appending. ok is false when no checkpoint helps.
func resumeFrom(cps []replayCheckpoint, target NodeID) (replayCheckpoint, []replayCheckpoint, bool) {
	i := sort.Search(len(cps), func(i int) bool { return cps[i].next > target })
	if i == 0 {
		return replayCheckpoint{}, nil, false
	}
	return cps[i-1], cps[:i], true
}

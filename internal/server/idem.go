package server

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Idempotency-token dedup (DESIGN.md §13). A mutation whose ack is lost in
// flight — connection cut between the server's commit and the client's
// read — is *ambiguous*: the client cannot know whether it committed.
// Blind re-send would double-apply. The contract: a client that attaches a
// token may re-send the identical mutation after an ambiguous outcome, and
// the server replays the original committed ack instead of executing
// twice.
//
// Only committed successes are cached. A failed attempt leaves no record,
// so a retry re-executes from scratch — exactly what the caller wants for
// a shed or a deadline. Failure outcomes need no dedup: nothing was
// applied.
//
// A token is reserved while its first attempt runs: a retry that arrives
// meanwhile (a client that timed out and re-sent on another connection)
// waits for that attempt's outcome instead of running the mutation beside
// it, then replays its ack — or, when it failed, runs itself.

// idemKey scopes a token to its tenant gate, by identity: two tenants
// reusing the same token string never collide, and sessions without a
// tenant (nil gate: auth disabled, or the fleet credential) share one
// scope.
type idemKey struct {
	gate  *tenantGate
	token string
}

type idemEntry struct {
	typ     byte
	payload []byte
}

// idemCache is a bounded FIFO of recent committed mutation responses.
// Oldest entries fall out first; any client retrying within a sane backoff
// window is far inside the horizon. FIFO (not LRU) on purpose: a replayed
// token must NOT refresh its slot — the entry exists to absorb a short
// retry burst, not to live forever.
type idemCache struct {
	mu   sync.Mutex
	max  int
	m    map[idemKey]idemEntry
	fifo []idemKey
	head int
	hits atomic.Int64
	// running holds the tokens whose attempt is executing; the channel
	// closes when it ends.
	running map[idemKey]chan struct{}
	// horizon records, per (gate, token prefix), the highest sequence
	// number evicted from the ring. FleetClient tokens are
	// "<prefix>-<seq>" with seq strictly increasing per client; a miss
	// whose seq is at or below the horizon is a token that *was* cached
	// and fell out — the outcome is ambiguous and re-executing could
	// double-apply, so the lookup reports evicted=true and the handler
	// refuses with ErrIdemAmbiguous instead of running the mutation
	// again. Tokens that never parse (no "-<digits>" tail) skip the
	// horizon: for those the cache keeps its historical best-effort
	// semantics. The horizon map is itself FIFO-bounded so a hostile
	// client minting prefixes cannot grow it without bound.
	//
	// Known trade-off: the horizon is one scalar per prefix, so it cannot
	// distinguish "this seq was cached and fell out" from "this seq never
	// arrived but a NEWER one was already evicted". With concurrent
	// in-flight writes from one client, a delayed first-ever request can
	// land below the horizon and be refused with ErrIdemAmbiguous even
	// though it never executed — a false ambiguity, never a false
	// re-execution. That is the safe direction (the caller reconciles by
	// reading, exactly as for a true eviction), and it requires the cache
	// to cycle through IdemCacheSize entries (default 4096) while a
	// request is still in flight — far beyond any sane client concurrency.
	// Eliminating it would need per-seq tracking, i.e. a second cache as
	// big as the first.
	horizon     map[idemPrefix]uint64
	horizonFIFO []idemPrefix
	horizonHead int
}

// idemPrefix scopes an eviction horizon to one tenant gate and one
// client's token prefix.
type idemPrefix struct {
	gate   *tenantGate
	prefix string
}

// maxHorizons bounds the eviction-horizon map independently of the entry
// ring; each horizon is one uint64 per distinct (gate, prefix).
const maxHorizons = 4096

// splitIdemToken parses "<prefix>-<decimal seq>". ok is false for tokens
// that do not follow the fleet's minting scheme.
func splitIdemToken(tok string) (prefix string, seq uint64, ok bool) {
	i := strings.LastIndexByte(tok, '-')
	if i <= 0 || i == len(tok)-1 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(tok[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return tok[:i], n, true
}

func newIdemCache(max int) *idemCache {
	return &idemCache{
		max:     max,
		m:       make(map[idemKey]idemEntry, max),
		running: make(map[idemKey]chan struct{}),
		horizon: make(map[idemPrefix]uint64),
	}
}

// begin looks a token up and, when it is not cached, forgotten or running,
// reserves it: the caller runs the mutation and must call end. found
// returns the cached ack. evicted=true means the token's sequence number is
// at or below the recorded eviction horizon for its prefix: it was once
// cached and has been forgotten, so the original outcome is unknowable. A
// non-nil running is the channel of an attempt still executing: the caller
// waits for it to close and asks again.
func (ic *idemCache) begin(k idemKey) (e idemEntry, found, evicted bool, running <-chan struct{}) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	e, found = ic.m[k]
	if found {
		ic.hits.Add(1)
		return e, true, false, nil
	}
	if ch, ok := ic.running[k]; ok {
		return e, false, false, ch
	}
	if prefix, seq, ok := splitIdemToken(k.token); ok {
		if h, ok := ic.horizon[idemPrefix{k.gate, prefix}]; ok && seq <= h {
			return e, false, true, nil
		}
	}
	ic.running[k] = make(chan struct{})
	return e, false, false, nil
}

// end releases the reservation begin took, caching ack when the attempt
// committed (ack non-nil), and wakes the attempts waiting on it.
func (ic *idemCache) end(k idemKey, ack *idemEntry) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ack != nil {
		ic.putLocked(k, *ack)
	}
	close(ic.running[k])
	delete(ic.running, k)
}

func (ic *idemCache) putLocked(k idemKey, e idemEntry) {
	if _, dup := ic.m[k]; dup {
		return // first committed outcome wins; replays never overwrite
	}
	if len(ic.m) >= ic.max {
		// The ring is full: the slot at head holds the oldest key. Evict
		// it, store the newest in its place, advance head to the next
		// oldest.
		old := ic.fifo[ic.head]
		delete(ic.m, old)
		ic.recordEvictionLocked(old)
		ic.fifo[ic.head] = k
		ic.head = (ic.head + 1) % len(ic.fifo)
		ic.m[k] = e
		return
	}
	ic.m[k] = e
	ic.fifo = append(ic.fifo, k)
}

// recordEvictionLocked advances the eviction horizon for the evicted
// token's prefix. Horizons only move forward: eviction order can differ
// from sequence order when a client's retries interleave.
func (ic *idemCache) recordEvictionLocked(k idemKey) {
	prefix, seq, ok := splitIdemToken(k.token)
	if !ok {
		return
	}
	hk := idemPrefix{k.gate, prefix}
	if cur, exists := ic.horizon[hk]; exists {
		if seq > cur {
			ic.horizon[hk] = seq
		}
		return
	}
	if len(ic.horizon) >= maxHorizons {
		old := ic.horizonFIFO[ic.horizonHead]
		delete(ic.horizon, old)
		ic.horizonFIFO[ic.horizonHead] = hk
		ic.horizonHead = (ic.horizonHead + 1) % len(ic.horizonFIFO)
	} else {
		ic.horizonFIFO = append(ic.horizonFIFO, hk)
	}
	ic.horizon[hk] = seq
}

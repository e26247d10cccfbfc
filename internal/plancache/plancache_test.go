package plancache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
)

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache
	c.Put("k", 1, 10)
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache must miss")
	}
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil cache snapshot = %+v", s)
	}
	c.Reset()
}

func TestHitMissCounters(t *testing.T) {
	c := New(64, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unexpected hit")
	}
	c.Put("a", "plan-a", 100)
	v, ok := c.Get("a")
	if !ok || v.(string) != "plan-a" {
		t.Fatalf("got %v %v", v, ok)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != 100+entryOverhead {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

// TestGetBytesIsGet: a key in a byte slice finds what Put stored under the
// same string, in the shard Get would look in, counts as Get counts, and a
// hit allocates nothing.
func TestGetBytesIsGet(t *testing.T) {
	// 256 entries give each shard room for 32: the 32 keys below all stay
	// cached however the per-process hash seed spreads them.
	c := New(256, nil)
	var nilCache *Cache
	if _, ok := nilCache.GetBytes([]byte("a")); ok {
		t.Fatal("nil cache must miss")
	}
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("xp:key-%d", i), i, 10)
	}
	key := make([]byte, 0, 16)
	for i := 0; i < 32; i++ {
		key = fmt.Appendf(key[:0], "xp:key-%d", i)
		if v, ok := c.GetBytes(key); !ok || v.(int) != i {
			t.Fatalf("%s: %v %v", key, v, ok)
		}
	}
	if _, ok := c.GetBytes([]byte("xp:absent")); ok {
		t.Fatal("unexpected hit")
	}
	if st := c.Snapshot(); st.Hits != 32 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	key = append(key[:0], "xp:key-7"...)
	if n := testing.AllocsPerRun(100, func() { c.GetBytes(key) }); n != 0 {
		t.Fatalf("a hit allocates %v", n)
	}
}

// TestBytesUnderAndShare: entries of different kinds share the cache, told
// apart by key prefix; Share is the Plans slice of the budget.
func TestBytesUnderAndShare(t *testing.T) {
	var none *Cache
	if none.BytesUnder("vx:") != 0 || none.Share() != 0 || none.Replace("k", nil, 1, 0) {
		t.Fatal("nil cache must report and store nothing")
	}
	c := New(64, budget.New(1000))
	c.Put("xp://a", 1, 100)
	c.Put("vx://a[@k", 2, 300)
	c.Put("vx://b[@k", 3, 0)
	if got, want := c.BytesUnder("vx:"), int64(300+2*entryOverhead); got != want {
		t.Fatalf("BytesUnder(vx:) = %d, want %d", got, want)
	}
	c.Put("vx://a[@k", 4, 0) // a table replaced by a marker gives its bytes back
	if c.BytesUnder("vx:") != 2*entryOverhead || c.BytesUnder("xp:")+c.BytesUnder("vx:") != c.Snapshot().Bytes {
		t.Fatalf("after replace: vx %d xp %d of %+v", c.BytesUnder("vx:"), c.BytesUnder("xp:"), c.Snapshot())
	}
	if got := c.Share(); got != 100 { // 10 % of the limit
		t.Fatalf("Share = %d, want 100", got)
	}
	if New(64, nil).Share() != 0 {
		t.Fatal("no budget: unlimited")
	}
}

// TestReplaceIsCompareAndSwap: Replace stores only over the value its caller
// read, so of racing callers exactly one wins.
func TestReplaceIsCompareAndSwap(t *testing.T) {
	type mark struct{ n int }
	c := New(64, nil)
	if c.Replace("k", mark{0}, mark{1}, 0) {
		t.Fatal("Replace stored under an absent key")
	}
	if !c.Replace("k", nil, mark{0}, 0) || c.Replace("k", nil, mark{1}, 0) {
		t.Fatal("Replace(nil) must store under an absent key and only there")
	}
	if c.Replace("k", mark{7}, mark{1}, 0) {
		t.Fatal("Replace stored over a value it did not name")
	}
	var wg sync.WaitGroup
	var wins atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.Replace("k", mark{0}, mark{1}, 50) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if v, _ := c.Get("k"); wins.Load() != 1 || v != (mark{1}) {
		t.Fatalf("%d winners, value %v", wins.Load(), v)
	}
	if st := c.Snapshot(); st.Entries != 1 || st.Bytes != 50+entryOverhead {
		t.Fatalf("after one winning Replace: %+v", st)
	}
}

// TestReplacementTriggersBudgetEviction: an entry that grows in place (a
// marker replaced by a table) must drain the class like a new one would.
func TestReplacementTriggersBudgetEviction(t *testing.T) {
	bud := budget.New(10_000) // Plans share: 1 000
	c := New(64, bud)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("xp:%d", i), i, 0)
	}
	bud.Charge(budget.Pool, 9_800) // the rest of the limit is in use elsewhere
	c.Put("xp:0", "grown", 4_000)
	if st := c.Snapshot(); st.Evictions == 0 || bud.NeedEvict(budget.Plans) {
		t.Fatalf("no eviction after a replacement outgrew the share: %+v, budget %+v", st, bud.Snapshot())
	}
}

func TestReplaceKeepsOneEntry(t *testing.T) {
	c := New(64, nil)
	c.Put("a", 1, 100)
	c.Put("a", 2, 300)
	st := c.Snapshot()
	if st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Bytes != 300+entryOverhead {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("value = %v", v)
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	// One entry per shard: the second insert landing on a shard evicts the
	// older one.
	c := New(shardCount, nil)
	sh := shardFor("first")
	c.Put("first", 1, 10)
	// Find a second key on the same shard.
	second := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%d", i)
		if shardFor(k) == sh {
			second = k
			break
		}
	}
	if second == "" {
		t.Fatal("no colliding key found")
	}
	c.Put(second, 2, 10)
	if _, ok := c.Get("first"); ok {
		t.Fatal("LRU entry must be evicted at capacity")
	}
	if _, ok := c.Get(second); !ok {
		t.Fatal("newest entry must survive")
	}
	if ev := c.Snapshot().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestBudgetPressureEvicts(t *testing.T) {
	// Plans share of a 10_000 budget is 1000 bytes. Fill far past it and
	// check the cache drains itself and discharges the budget.
	bud := budget.New(10_000)
	c := New(1024, bud)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("q%d", i), i, 512)
	}
	st := c.Snapshot()
	if st.Evictions == 0 {
		t.Fatal("budget pressure must evict")
	}
	if got := bud.Snapshot().PlanBytes; got != st.Bytes {
		t.Fatalf("budget plan bytes %d != cache bytes %d", got, st.Bytes)
	}
	// Pressure eviction must keep the cache well under the total budget —
	// without it the fill would have charged 64*(512+overhead) ≈ 41 KB.
	if st.Bytes > 10_000 {
		t.Fatalf("cache kept %d bytes under pressure", st.Bytes)
	}
	c.Reset()
	if got := bud.Snapshot().PlanBytes; got != 0 {
		t.Fatalf("reset left %d budget bytes", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New(256, budget.New(1<<20))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("q%d", (g*31+i)%64)
				if _, ok := c.Get(k); !ok {
					c.Put(k, k, 256)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Snapshot()
	if st.Entries == 0 || st.Entries > 64 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

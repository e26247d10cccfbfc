// Parallel read-path benchmarks (experiment E8, DESIGN.md §9): the paper's
// lazy structures are caches that warm on access, which is exactly the shape
// that should let concurrent reads scale with cores. These targets measure
// random subtree reads, XPath evaluation, and a mixed reader/writer workload
// under b.RunParallel; scripts/bench.sh runs them at -cpu 1,2,4,8 and emits
// BENCH_parallel.json so later PRs have a trajectory to regress against.
package axml_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/token"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// loadStoreBatched builds a purchase-order store appending `batch` orders per
// Append call — large batches produce the paper's "few, coarse" ranges whose
// locate replays dominate random-read cost (Table 5's 33 kb/s row).
func loadStoreBatched(b *testing.B, cfg core.Config, orders, batch int) *core.Store {
	b.Helper()
	s, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.New(2005)
	for done := 0; done < orders; done += batch {
		var frag []core.Token
		for j := 0; j < batch && done+j < orders; j++ {
			frag = append(frag, gen.PurchaseOrder(done+j)...)
		}
		if _, err := s.Append(frag); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// zipfKeys precomputes a hot-set key sample over the store's id space.
func zipfKeys(s *core.Store, n int, seed int64) []core.NodeID {
	gen := workload.New(seed)
	maxID := s.Stats().Nodes
	perm := gen.Perm(int(maxID))
	sample := gen.Zipf(maxID, 1.8)
	keys := make([]core.NodeID, n)
	for i := range keys {
		keys[i] = core.NodeID(perm[sample()-1] + 1)
	}
	return keys
}

// BenchmarkParallelRandomRead measures concurrent point subtree reads on a
// coarse-range store with the partial index on — the workload the sharded
// buffer pool and striped partial index exist for. Run with -cpu 1,2,4,8 to
// see the scaling curve.
func BenchmarkParallelRandomRead(b *testing.B) {
	s := loadStoreBatched(b, core.Config{Mode: core.RangePartial}, 2000, 500)
	defer s.Close()
	keys := zipfKeys(s, 8192, 99)
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := keys[ctr.Add(1)%uint64(len(keys))]
			if err := s.ScanNode(k, func(core.Item) bool { return true }); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelExists measures the cheapest read op — a pure existence
// probe — which must not take the exclusive store lock.
func BenchmarkParallelExists(b *testing.B) {
	s := loadStoreBatched(b, core.Config{Mode: core.RangePartial}, 2000, 500)
	defer s.Close()
	keys := zipfKeys(s, 8192, 7)
	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !s.Exists(keys[ctr.Add(1)%uint64(len(keys))]) {
				b.Error("missing node")
				return
			}
		}
	})
}

// BenchmarkParallelXPath evaluates an anchored path per goroutine through
// the store-level query API: the plan comes from the keyed plan cache and
// executes as a pushdown scan over the order's raw token subtree — no
// navigational view, no intermediate node sets.
func BenchmarkParallelXPath(b *testing.B) {
	s := loadStoreBatched(b, core.Config{Mode: core.RangePartial}, 400, 100)
	defer s.Close()
	first, ok, err := s.FirstNodeID()
	if err != nil || !ok {
		b.Fatal("no root:", err)
	}
	var orders []core.NodeID
	for id, ok := first, true; ok && len(orders) < 256; id, ok, err = s.NextSibling(id) {
		if err != nil {
			b.Fatal(err)
		}
		orders = append(orders, id)
	}
	ctx := context.Background()
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := orders[ctr.Add(1)%uint64(len(orders))]
			ids, err := xpath.QueryNodeIDsCtx(ctx, s, id, `purchase-order/line/item`)
			if err != nil || len(ids) == 0 {
				b.Error("empty result:", err)
				return
			}
		}
	})
}

// BenchmarkParallelXPathComplex runs a whole-store query mix — an attribute+
// positional multi-predicate path, a two-branch union (fused into one scan),
// and one FLWOR per eight ops — with the plan cache on and off. The cache-off
// axis re-parses and re-plans every operation, isolating what the keyed cache
// buys; the reported cachehit metric must stay above 0.90 on the cache axis.
func BenchmarkParallelXPathComplex(b *testing.B) {
	const (
		qMulti = `//line[@no='2'][1]/item`
		qUnion = `//purchase-order[@status='open']/customer | //purchase-order[@status='billed']/date`
	)
	for _, ax := range []struct {
		name    string
		entries int
	}{{"cache", 0}, {"nocache", -1}} {
		b.Run(ax.name, func(b *testing.B) {
			s := loadStoreBatched(b, core.Config{Mode: core.RangePartial, PlanCacheEntries: ax.entries}, 400, 100)
			defer s.Close()
			ctx := context.Background()
			var ctr atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					switch i := ctr.Add(1); i % 8 {
					case 0:
						if _, err := xquery.EvalStoreCtx(ctx, s, qFLWOR); err != nil {
							b.Error(err)
							return
						}
					case 1, 2, 3:
						if _, err := xpath.QueryIDsCtx(ctx, s, qUnion); err != nil {
							b.Error(err)
							return
						}
					default:
						if _, err := xpath.QueryIDsCtx(ctx, s, qMulti); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
			b.StopTimer()
			st := s.Stats()
			if lookups := st.PlanCacheHits + st.PlanCacheMisses; lookups > 0 {
				b.ReportMetric(float64(st.PlanCacheHits)/float64(lookups), "cachehit")
			}
		})
	}
}

// qFLWOR is the FLWOR of the complex query mix.
const qFLWOR = `for $l in //line[@no='1'] where $l/qty > 50 return <hot>{$l/item}</hot>`

// BenchmarkTreeFallback prices the tree evaluator over 1 000 orders: shapes
// the scan cannot run, each op reading the store out, building a Doc and
// evaluating over it, and the complex mix's FLWOR, which always builds one.
func BenchmarkTreeFallback(b *testing.B) {
	s, _ := ordersStore(b, core.Config{Mode: core.RangePartial}, 1000)
	defer s.Close()
	ctx := context.Background()
	ids := func(q string) func() error {
		if p, err := xpath.CompileStore(s, q); err != nil || p.Pushdown() {
			b.Fatalf("%s: not a fallback (%v)", q, err)
		}
		return func() error {
			_, err := xpath.QueryIDsCtx(ctx, s, q)
			return err
		}
	}
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"last", ids(`//purchase-order[last()]/date`)},
		{"numeric", ids(`//line[qty > 50]/item`)},
		{"parent", ids(`//item/..`)},
		{"union", ids(`//item/.. | //purchase-order[last()]/date`)},
		{"self-value", ids(`//purchase-order//line/item[.='widget']`)},
		{"first", func() error {
			_, _, err := xpath.QueryFirstCtx(ctx, s, `//line[qty > 50]/item`)
			return err
		}},
		{"flwor", func() error {
			_, err := xquery.EvalStoreCtx(ctx, s, qFLWOR)
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ordersStore is a store holding one document of n purchase orders — the
// shape of the benchmark's `query` (1 000) and `read-cold` (20 000) corpora.
func ordersStore(b *testing.B, cfg core.Config, n int) (*core.Store, core.NodeID) {
	b.Helper()
	s, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	root, err := s.Append(workload.New(2005).PurchaseOrdersDoc(n))
	if err != nil {
		b.Fatal(err)
	}
	return s, root
}

// benchPushdown runs one pushdown plan over a 1 000-order document as a
// whole-store scan — the shape and size of the benchmark's `query` workload.
// The plan is held here and the store has no plan cache, so no op plans and
// none asks the value index: the work of the parent's cached-plan scan.
func benchPushdown(b *testing.B, q string, want int) {
	s, _ := ordersStore(b, core.Config{Mode: core.RangePartial, PlanCacheEntries: -1}, 1000)
	defer s.Close()
	p, err := xpath.CompileStore(s, q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := p.IDs(ctx, s, core.InvalidNode)
		if err != nil || len(ids) != want {
			b.Fatalf("%s: %d ids, %v", q, len(ids), err)
		}
	}
}

// BenchmarkPushdownChildPredicate is the benchmark's q-fallback expression:
// a child-value predicate and a position decided inside the scan, with the
// result step held as a candidate under every order that is not Globex's.
func BenchmarkPushdownChildPredicate(b *testing.B) {
	benchPushdown(b, `//purchase-order[customer='Globex'][1]/date`, 1)
}

// BenchmarkPushdownPointSkip is q-point as a scan: 999 of 1 000 orders are
// dead after their @id test and are consumed by depth counting alone.
func BenchmarkPushdownPointSkip(b *testing.B) {
	benchPushdown(b, `/purchase-orders/purchase-order[@id='PO-000500']`, 1)
}

const qPointFmt = `/purchase-orders/purchase-order[@id='PO-%06d']`

// BenchmarkValueIndexPoint is q-point once its shape's value table stands: an
// order drawn uniformly from the sources every op, as the `query` workload
// draws them, no write in between. With 256 sources every query text fits the
// plan cache; with 1 000 — the workload's mix — the texts outnumber its 512
// entries, and only a plan keyed by shape still hits. planhits/lookup is the
// plan cache's hit share over the timed ops: two lookups each, the plan and
// the value table.
func BenchmarkValueIndexPoint(b *testing.B) {
	for _, c := range []struct{ orders, sources int }{{1000, 256}, {20000, 256}, {1000, 1000}} {
		b.Run(fmt.Sprintf("orders=%d/sources=%d", c.orders, c.sources), func(b *testing.B) {
			n := c.orders
			s, _ := ordersStore(b, core.Config{Mode: core.RangePartial}, n)
			defer s.Close()
			ctx := context.Background()
			qs := make([]string, c.sources)
			for i := range qs {
				qs[i] = fmt.Sprintf(qPointFmt, i*n/len(qs))
				if _, err := xpath.QueryIDsCtx(ctx, s, qs[i]); err != nil { // planned; first sight, fill, hits
					b.Fatal(err)
				}
			}
			draws := make([]string, 1<<14)
			rng := rand.New(rand.NewSource(2005))
			for i := range draws {
				draws[i] = qs[rng.Intn(len(qs))]
			}
			before := s.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := draws[i%len(draws)]
				ids, err := xpath.QueryIDsCtx(ctx, s, q)
				if err != nil || len(ids) != 1 {
					b.Fatalf("%s: %d ids, %v", q, len(ids), err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			if st.ValueIndexFills != 1 || st.ValueIndexHits < uint64(b.N) {
				b.Fatalf("not measured on hits: %d fills, %d hits of %d", st.ValueIndexFills, st.ValueIndexHits, b.N)
			}
			hits, misses := st.PlanCacheHits-before.PlanCacheHits, st.PlanCacheMisses-before.PlanCacheMisses
			b.ReportMetric(float64(hits)/float64(hits+misses), "planhits/lookup")
		})
	}
}

// BenchmarkValueIndexChild is the benchmark's q-fallback once its head's table
// stands: a map lookup for Globex's orders, [1] over their parents, and one
// anchored read of the first order's subtree for /date.
func BenchmarkValueIndexChild(b *testing.B) {
	const q = `//purchase-order[customer='Globex'][1]/date`
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			s, _ := ordersStore(b, core.Config{Mode: core.RangePartial}, n)
			defer s.Close()
			ctx := context.Background()
			b.ReportAllocs()
			for i := -3; i < b.N; i++ { // first sight, fill and a hit before the clock starts
				if i == 0 {
					b.ResetTimer()
				}
				ids, err := xpath.QueryIDsCtx(ctx, s, q)
				if err != nil || len(ids) != 1 {
					b.Fatalf("%s: %d ids, %v", q, len(ids), err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); st.ValueIndexFills != 1 || st.ValueIndexHits < uint64(b.N) {
				b.Fatalf("not measured on hits: %d fills, %d hits of %d", st.ValueIndexFills, st.ValueIndexHits, b.N)
			}
		})
	}
}

// BenchmarkValueIndexTailCrossover prices xpath's tailReadTokens: a path with
// steps behind its head, over 1 000 orders of which k carry the value, run
// three ways — anchored (the table's k elements, /date read below each: what a
// hit does), scan (no index: what the hit replaces) and index (what the rule
// picks). The constant belongs where anchored crosses scan; index must follow
// the cheaper of the two on either side, and k=333 — the share of
// [@status='open'] — must not be slower than scan.
func BenchmarkValueIndexTailCrossover(b *testing.B) {
	const head = `/purchase-orders/purchase-order[@status='hot']`
	const q = head + `/date`
	ctx := context.Background()
	for _, k := range []int{125, 250, 333, 500} {
		gen := workload.New(2005)
		doc := []core.Token{token.Elem("purchase-orders")}
		for i := 0; i < 1000; i++ {
			frag := gen.PurchaseOrder(i)
			if i*k/1000 != (i+1)*k/1000 {
				for j := range frag {
					if frag[j].Kind == token.BeginAttribute && frag[j].Name == "status" {
						frag[j].Value = "hot"
					}
				}
			}
			doc = append(doc, frag...)
		}
		doc = append(doc, token.EndElem())
		open := func(b *testing.B, cfg core.Config) *core.Store {
			s, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Append(doc); err != nil {
				b.Fatal(err)
			}
			return s
		}
		b.Run(fmt.Sprintf("survivors=%d/anchored", k), func(b *testing.B) {
			s := open(b, core.Config{Mode: core.RangePartial})
			defer s.Close()
			rest, err := xpath.CompileStore(s, "*/date")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := -3; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				heads, err := xpath.QueryIDsCtx(ctx, s, head)
				if err != nil || len(heads) != k {
					b.Fatalf("%s: %d ids, %v", head, len(heads), err)
				}
				for _, h := range heads {
					if ids, err := rest.IDs(ctx, s, h); err != nil || len(ids) != 1 {
						b.Fatalf("date below %d: %d ids, %v", h, len(ids), err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("survivors=%d/scan", k), func(b *testing.B) {
			s := open(b, core.Config{Mode: core.RangePartial, PlanCacheEntries: -1})
			defer s.Close()
			p, err := xpath.CompileStore(s, q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ids, err := p.IDs(ctx, s, core.InvalidNode); err != nil || len(ids) != k {
					b.Fatalf("%s: %d ids, %v", q, len(ids), err)
				}
			}
		})
		b.Run(fmt.Sprintf("survivors=%d/index", k), func(b *testing.B) {
			s := open(b, core.Config{Mode: core.RangePartial})
			defer s.Close()
			b.ReportAllocs()
			for i := -3; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if ids, err := xpath.QueryIDsCtx(ctx, s, q); err != nil || len(ids) != k {
					b.Fatalf("%s: %d ids, %v", q, len(ids), err)
				}
			}
		})
	}
}

// BenchmarkValueIndexBesideWrites is q-point with one write (untimed: an
// order inserted, or that order deleted) between every two queries: the
// shape is at first sight every time, so each op is the literal scan plus a
// marker, never a fill. It has to stay with BenchmarkPushdownPointSkip.
func BenchmarkValueIndexBesideWrites(b *testing.B) {
	s, root := ordersStore(b, core.Config{Mode: core.RangePartial}, 1000)
	defer s.Close()
	ctx := context.Background()
	q := fmt.Sprintf(qPointFmt, 500)
	extra := workload.New(7).PurchaseOrder(5000)
	inserted := core.InvalidNode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var err error
		if inserted == core.InvalidNode {
			inserted, err = s.InsertIntoLast(root, extra)
		} else {
			err, inserted = s.DeleteNode(inserted), core.InvalidNode
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ids, err := xpath.QueryIDsCtx(ctx, s, q)
		if err != nil || len(ids) != 1 {
			b.Fatalf("%s: %d ids, %v", q, len(ids), err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.ValueIndexFills != 0 || st.ValueIndexHits != 0 {
		b.Fatalf("a store written between every two queries filled %d tables, hit %d times", st.ValueIndexFills, st.ValueIndexHits)
	}
}

// BenchmarkParallelMixed runs mostly-read traffic with an occasional writer
// (1 insert per 64 ops): the readers must keep scaling while XUpdate inserts
// split ranges under the exclusive lock.
func BenchmarkParallelMixed(b *testing.B) {
	s := loadStoreBatched(b, core.Config{Mode: core.RangePartial}, 1000, 250)
	defer s.Close()
	root, ok, err := s.FirstNodeID()
	if err != nil || !ok {
		b.Fatal("no root:", err)
	}
	keys := zipfKeys(s, 8192, 42)
	frag := workload.New(7).PurchaseOrder(1)
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			if i%64 == 0 {
				if _, err := s.InsertIntoLast(root, frag); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			if err := s.ScanNode(keys[i%uint64(len(keys))], func(core.Item) bool { return true }); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelCommit is the write path's writer-count curve: every op
// is one single-order insert plus Flush on a journaled store over a real
// FilePager with real fsync, one writer per processor (-cpu 1,2,4,8 gives
// 1, 2, 4 and 8 writers). One writer pays a log fsync per commit; more
// writers stage behind the running fsync and share the next one, so ns/op
// should fall with the writer count until the log device saturates. The
// fsyncs/commit metric is every fsync the journal issued (log, page file,
// the one ending a checkpoint) per committed batch; commits/logsync the
// mean group size (WALCommits ÷ WALLogSyncs); logB/commit the bytes
// appended to the log per batch; ckpt/1kcommit how many checkpoints a
// thousand batches cost. Below the journal, logsync-p50-us is how long one
// commit's log fsync takes and grew/logsync the share of them covering a
// batch written past the log's previous end of file — a fsync that must
// commit the inode's new size as well; pages/ckpt, ckpt-p50-us and
// ckpt-max-us are what one checkpoint writes and how long it holds its
// committer, from its first page-file write to the log fsync that ends it.
func BenchmarkParallelCommit(b *testing.B) {
	w := &ckptWatch{}
	wp, err := wal.OpenWithOptions(filepath.Join(b.TempDir(), "commit.db"), 0, wal.Options{
		WrapPager: func(p wal.InnerPager) wal.InnerPager { return ckptPages{p, w} },
		WrapLog:   func(f wal.File) wal.File { return ckptLog{f, w} },
	})
	if err != nil {
		b.Fatal(err)
	}
	s := loadStoreBatched(b, core.Config{Mode: core.RangePartial, Pager: wp}, 2000, 200)
	defer s.Close()
	root, ok, err := s.FirstNodeID()
	if err != nil || !ok {
		b.Fatal("no root:", err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	frag := workload.New(7).PurchaseOrder(1)
	before := s.Stats()
	w.reset()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.InsertIntoLast(root, frag); err != nil {
				b.Error(err)
				return
			}
			if err := s.Flush(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	after := s.Stats()
	if commits := float64(after.WALCommits - before.WALCommits); commits > 0 {
		b.ReportMetric(float64(after.WALSyncs-before.WALSyncs)/commits, "fsyncs/commit")
		b.ReportMetric(commits/float64(after.WALLogSyncs-before.WALLogSyncs), "commits/logsync")
		b.ReportMetric(float64(after.WALLoggedBytes-before.WALLoggedBytes)/commits, "logB/commit")
		b.ReportMetric(float64(after.WALCheckpoints-before.WALCheckpoints)*1000/commits, "ckpt/1kcommit")
	}
	w.report(b)
}

// ckptWatch times the journal from below. A checkpoint starts at its first
// page-file write (only a checkpoint writes the page file) and ends at the
// log fsync after it; every other log fsync makes batches durable, and is
// timed on its own and marked grown when a batch it covers was written past
// the log's end of file.
type ckptWatch struct {
	mu      sync.Mutex
	start   time.Time
	pages   int
	took    []time.Duration
	eof     int64 // the log's size as its writes and truncates left it
	grew    bool  // a write since the last log fsync began extended the log
	logSync []time.Duration
	grown   int // log fsyncs that covered a write past the end of file
}

func (w *ckptWatch) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pages, w.took, w.logSync, w.grown = 0, nil, nil, 0
}

func (w *ckptWatch) report(b *testing.B) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.logSync); n > 0 {
		slices.Sort(w.logSync)
		b.ReportMetric(float64(w.logSync[n/2].Nanoseconds())/1e3, "logsync-p50-us")
		b.ReportMetric(float64(w.grown)/float64(n), "grew/logsync")
	}
	if len(w.took) == 0 {
		return
	}
	slices.Sort(w.took)
	b.ReportMetric(float64(w.pages)/float64(len(w.took)), "pages/ckpt")
	b.ReportMetric(float64(w.took[len(w.took)/2].Microseconds()), "ckpt-p50-us")
	b.ReportMetric(float64(w.took[len(w.took)-1].Microseconds()), "ckpt-max-us")
}

type ckptPages struct {
	wal.InnerPager
	w *ckptWatch
}

func (p ckptPages) WritePage(id pagestore.PageID, buf []byte) error {
	p.w.mu.Lock()
	if p.w.start.IsZero() {
		p.w.start = time.Now()
	}
	p.w.pages++
	p.w.mu.Unlock()
	return p.InnerPager.WritePage(id, buf)
}

type ckptLog struct {
	wal.File
	w *ckptWatch
}

func (f ckptLog) WriteAt(p []byte, off int64) (int, error) {
	f.w.mu.Lock()
	if end := off + int64(len(p)); end > f.w.eof {
		f.w.eof, f.w.grew = end, true
	}
	f.w.mu.Unlock()
	return f.File.WriteAt(p, off)
}

func (f ckptLog) Truncate(size int64) error {
	f.w.mu.Lock()
	f.w.eof = size
	f.w.mu.Unlock()
	return f.File.Truncate(size)
}

func (f ckptLog) Sync() error {
	f.w.mu.Lock()
	grew := f.w.grew
	f.w.grew = false
	f.w.mu.Unlock()
	began := time.Now()
	err := f.File.Sync()
	took := time.Since(began)
	f.w.mu.Lock()
	if f.w.start.IsZero() {
		f.w.logSync = append(f.w.logSync, took)
		if grew {
			f.w.grown++
		}
	} else {
		f.w.took = append(f.w.took, time.Since(f.w.start))
		f.w.start = time.Time{}
		f.w.grew = f.w.grew || grew // the checkpoint's fsync covered no batch
	}
	f.w.mu.Unlock()
	return err
}

// BenchmarkSiblingWalk walks the whole top-level sibling chain once per
// iteration. NextSibling is locate + end-scan + advance, the paths whose
// token stepping should touch only kind bytes and length prefixes — its
// allocation count is the token-codec overhead measure in EXPERIMENTS.md.
func BenchmarkSiblingWalk(b *testing.B) {
	s := loadStoreBatched(b, core.Config{Mode: core.RangeOnly}, 400, 100)
	defer s.Close()
	first, ok, err := s.FirstNodeID()
	if err != nil || !ok {
		b.Fatal("no root:", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for id, ok := first, true; ok; id, ok, err = s.NextSibling(id) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 400 {
			b.Fatalf("walked %d siblings, want 400", n)
		}
	}
}

// BenchmarkColdCoarseRandomRead measures concurrent locate replay cost on a
// coarse RangeOnly store (no partial index): every read replays tokens from
// the head of a large range unless intra-range replay checkpoints cut the
// scan short. Replays share nothing but the buffer pool and the pooled
// scratch buffers, so aggregate throughput must scale with cores.
func BenchmarkColdCoarseRandomRead(b *testing.B) {
	s := loadStoreBatched(b, core.Config{Mode: core.RangeOnly}, 2000, 500)
	defer s.Close()
	gen := workload.New(4)
	maxID := s.Stats().Nodes
	sample := gen.Uniform(maxID)
	keys := make([]core.NodeID, 8192)
	for i := range keys {
		keys[i] = core.NodeID(sample())
	}
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := keys[ctr.Add(1)%uint64(len(keys))]
			if err := s.ScanNode(k, func(core.Item) bool { return true }); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelColdFileRead is the in-process twin of the wire
// benchmark's read-cold: a file-backed store of 20 000 orders in 200-order
// ranges (each a stub plus a six-page overflow chain), the default 256-page
// pool and 4 096-entry Partial Index, uniform reads of order roots rendered
// as XML. The corpus is three times the pool and five times the index, so
// most reads miss both — the only in-process read benchmark whose pool
// evicts. misses/op is pool misses, each one a pread and a checksum.
func BenchmarkParallelColdFileRead(b *testing.B) {
	pager, err := pagestore.OpenFilePager(filepath.Join(b.TempDir(), "cold.db"), 0)
	if err != nil {
		b.Fatal(err)
	}
	s := loadStoreBatched(b, core.Config{Mode: core.RangePartial, Pager: pager}, 20000, 200)
	defer s.Close()
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	var roots []core.NodeID
	depth := 0
	err = s.ScanRawCtx(context.Background(), func(id core.NodeID, raw []byte) bool {
		switch k := token.KindOf(raw[0]); {
		case k.IsBegin():
			if depth == 0 {
				roots = append(roots, id)
			}
			depth++
		case k.IsEnd():
			depth--
		}
		return true
	})
	if err != nil || len(roots) != 20000 {
		b.Fatalf("harvested %d order roots: %v", len(roots), err)
	}
	sample := workload.New(11).Uniform(uint64(len(roots)))
	keys := make([]core.NodeID, 1<<16)
	for i := range keys {
		keys[i] = roots[sample()-1]
	}
	// Warm the way a server is warm: checkpoints and what else a read leaves
	// behind exist for every range before timing starts.
	for _, k := range keys[:8192] {
		if _, err := s.NodeXMLString(k); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Uint64
	before := s.Stats().Pool
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := keys[ctr.Add(1)%uint64(len(keys))]
			if xml, err := s.NodeXMLString(k); err != nil || len(xml) == 0 {
				b.Error("empty read:", err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Pool.Misses-before.Misses)/float64(b.N), "misses/op")
}

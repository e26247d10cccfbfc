// Race stress: concurrent ScanNode and XPath readers against one writer
// whose inserts keep splitting ranges and bumping range versions. The store
// lock is shared on the read paths, so every lazily-cached location (partial
// index entries, replay checkpoints) is being learned, invalidated and
// re-learned while these readers run; the assertions catch any stale
// location being served — a wrong begin token, a torn subtree, or a
// disappearing live node. Run under -race (scripts/check.sh does).
package axml_test

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/token"
	"repro/internal/workload"
	"repro/internal/xmltok"
	"repro/internal/xpath"
)

func TestStressReadersVsSplittingWriter(t *testing.T) {
	s, err := core.Open(core.Config{Mode: core.RangePartial, PartialCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := workload.New(11)
	for done := 0; done < 200; done += 50 {
		var frag []core.Token
		for j := 0; j < 50; j++ {
			frag = append(frag, gen.PurchaseOrder(done+j)...)
		}
		if _, err := s.Append(frag); err != nil {
			t.Fatal(err)
		}
	}
	first, ok, err := s.FirstNodeID()
	if err != nil || !ok {
		t.Fatal("no first node:", err)
	}
	var orders []core.NodeID
	for id, ok := first, true; ok; id, ok, err = s.NextSibling(id) {
		if err != nil {
			t.Fatal(err)
		}
		orders = append(orders, id)
	}
	if len(orders) != 200 {
		t.Fatalf("got %d top-level orders, want 200", len(orders))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	// Writer: round-robins inserts across every order, splitting the coarse
	// ranges and bumping their versions, then deletes what it inserted so the
	// order nodes themselves stay live the whole time.
	note := xmltok.MustParseFragment(`<note>stress</note>`)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 400; i++ {
			o := orders[i%len(orders)]
			id, err := s.InsertIntoLast(o, note)
			if err != nil {
				fail("insert into %d: %v", o, err)
				return
			}
			if i%2 == 0 {
				if err := s.DeleteNode(id); err != nil {
					fail("delete %d: %v", id, err)
					return
				}
			}
		}
	}()

	// ScanNode readers: a served location is stale if the subtree does not
	// start with the requested order's begin token or does not balance.
	var ctr atomic.Uint64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := orders[ctr.Add(1)%uint64(len(orders))]
				depth, n := 0, 0
				err := s.ScanNode(o, func(it core.Item) bool {
					if n == 0 {
						if it.ID != o {
							fail("scan of %d started at node %d", o, it.ID)
							return false
						}
						if it.Tok.Kind != token.BeginElement || it.Tok.Name != "purchase-order" {
							fail("scan of %d started at %v token %q", o, it.Tok.Kind, it.Tok.Name)
							return false
						}
					}
					n++
					if it.Tok.IsBegin() {
						depth++
					} else if it.Tok.IsEnd() {
						depth--
					}
					return true
				})
				if err != nil {
					fail("scan %d: %v", o, err)
					return
				}
				if depth != 0 {
					fail("torn subtree of %d: depth %d after %d items", o, depth, n)
					return
				}
				if !s.Exists(o) {
					fail("live node %d reported missing", o)
					return
				}
			}
		}()
	}

	// XPath readers: read + build + eval; the query must keep matching no
	// matter how the writer reshapes the ranges underneath.
	q, err := xpath.Parse(`purchase-order/line/item`)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := orders[ctr.Add(1)%uint64(len(orders))]
				items, err := s.ReadNode(o)
				if err != nil {
					fail("read %d: %v", o, err)
					return
				}
				d, err := xpath.BuildDoc(items)
				if err != nil {
					fail("build doc for %d: %v", o, err)
					return
				}
				ns, err := q.Eval(d)
				if err != nil || len(ns) == 0 {
					fail("xpath over %d: %d results, err %v", o, len(ns), err)
					return
				}
			}
		}()
	}

	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestStressColdFileReadersVsSplittingWriter is the cold half of the stress
// above: a file-backed store several times its 16-page pool and its 64-entry
// Partial Index, so every reader's uniform reads miss both, fill pool frames
// with the buffers of the frames they evict, walk and jump overflow chains by
// directories other readers are filling, and resume from checkpoints — while
// a writer's middle inserts split the ranges, free and reallocate their
// chains' pages, and bump the versions all of that is stamped with. Each read
// renders the order straight from the stored bytes and must equal the
// generator's serialization of it, byte for byte.
func TestStressColdFileReadersVsSplittingWriter(t *testing.T) {
	pager, err := pagestore.OpenFilePager(filepath.Join(t.TempDir(), "cold.db"), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Mode: core.RangePartial, PartialCapacity: 64, PoolPages: 16, Pager: pager})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const orders, batch = 1200, 200 // six ranges of six or seven pages each
	gen := workload.New(23)
	var want []string
	for done := 0; done < orders; done += batch {
		var frag []core.Token
		for j := 0; j < batch; j++ {
			po := gen.PurchaseOrder(done + j)
			xml, err := xmltok.ToString(po)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, xml)
			frag = append(frag, po...)
		}
		if _, err := s.Append(frag); err != nil {
			t.Fatal(err)
		}
	}
	var roots []core.NodeID
	first, ok, err := s.FirstNodeID()
	for id := first; ok && err == nil; id, ok, err = s.NextSibling(id) {
		roots = append(roots, id)
	}
	if err != nil || len(roots) != orders {
		t.Fatalf("walked %d top-level orders of %d: %v", len(roots), orders, err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer: a sibling after a uniformly chosen order, every other one deleted again
		defer wg.Done()
		defer close(stop)
		pick := workload.New(5).Uniform(orders)
		note := xmltok.MustParseFragment(`<note>split here</note>`)
		for i := 0; i < 300; i++ {
			id, err := s.InsertAfter(roots[pick()-1], note)
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%2 == 0 {
				if err := s.DeleteNode(id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pick := workload.New(int64(100 + g)).Uniform(orders)
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := pick() - 1
				var err error
				if buf, err = s.AppendNodeXML(context.Background(), buf[:0], roots[i]); err != nil || string(buf) != want[i] {
					t.Errorf("reader %d: order %d (node %d) read as %q, %v", g, i, roots[i], buf, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if st := s.Stats(); st.Pool.Evictions == 0 || st.PartialEvictions == 0 || st.Splits == 0 {
		t.Errorf("the run was not cold or not splitting: %d pool evictions, %d partial evictions, %d splits", st.Pool.Evictions, st.PartialEvictions, st.Splits)
	}
}

// TestStressReadersVsMergingWriter races readers against the page-full merge.
// A writer appends orders to the root, three for every one it inserts after
// an earlier order, on pages small enough that its appends fill one every
// few orders, so the ranges they make merge again and again. Readers
// resolve the ids of the orders appended last — their Partial Index entries
// and checkpoints point into exactly the ranges about to merge — and each
// read must render the order's exact XML, under -race.
func TestStressReadersVsMergingWriter(t *testing.T) {
	s, err := core.Open(core.Config{Mode: core.RangePartial, PartialCapacity: 256, PageSize: 2048, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root, err := s.Append(xmltok.MustParseFragment(`<purchase-orders/>`))
	if err != nil {
		t.Fatal(err)
	}
	type placed struct {
		id  core.NodeID
		xml string
	}
	var (
		mu     sync.Mutex
		orders []placed
	)
	recent := func(r uint64) (placed, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(orders) == 0 {
			return placed{}, false
		}
		return orders[len(orders)-1-int(r%uint64(min(len(orders), 24)))], true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(stop)
		gen := workload.New(31)
		pick := workload.New(32).Uniform(1 << 30)
		for k := 0; k < 500 && !failed.Load(); k++ {
			po := gen.PurchaseOrder(k)
			xml, err := xmltok.ToString(po)
			if err != nil {
				fail("render order %d: %v", k, err)
				return
			}
			var id core.NodeID
			if k%4 == 3 {
				mu.Lock()
				after := orders[int(pick()%uint64(len(orders)))].id
				mu.Unlock()
				id, err = s.InsertAfter(after, po)
			} else {
				id, err = s.InsertIntoLast(root, po)
			}
			if err != nil {
				fail("insert order %d: %v", k, err)
				return
			}
			mu.Lock()
			orders = append(orders, placed{id, xml})
			mu.Unlock()
		}
	}()
	var ctr atomic.Uint64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				o, ok := recent(ctr.Add(7))
				if !ok {
					continue
				}
				var err error
				if buf, err = s.AppendNodeXML(context.Background(), buf[:0], o.id); err != nil || string(buf) != o.xml {
					fail("order %d read as %.80q, %v; want %.80q", o.id, buf, err, o.xml)
					return
				}
				if p, ok, err := s.Parent(o.id); err != nil || !ok || p != root {
					fail("order %d: parent %d, %v, %v; want the root %d", o.id, p, ok, err, root)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if st := s.Stats(); st.Merges == 0 || st.PartialHits == 0 {
		t.Errorf("the run did not merge under readers: %d merges, %d partial hits", st.Merges, st.PartialHits)
	} else {
		t.Logf("%d merges, %d partial hits, %d partial invalidations", st.Merges, st.PartialHits, st.PartialInvalidations)
	}
}

package xpath

// The lazy value index against its oracle. A stale table is the only new way
// a pushdown query can be wrong, so the differential suite interleaves every
// mutator with probe-shape queries asked often enough to mark, fill and hit,
// and compares each answer with BuildDoc + the tree evaluator. It fails when
// the generation bump is taken out of core.writableLocked or
// core.reloadLocked.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/token"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// vxVals are the attribute values in play: shared by many elements, empty,
// and one ("zz") that is usually absent.
var vxVals = []string{"a", "b", "", "a", "b", "c", "zz"}

// vxShapes are probe shapes over the test document, %s the literal.
var vxShapes = []string{
	"/r/o[@k='%s']", "//o[@k='%s']", "//c[@k='%s']", "//*[@k='%s']", "/r/o/c['%s'=@k]", "//o[@j='%s']",
	// wildcard steps beside the `//` forms they must not share a table with
	"/*/o[@k='%s']", "/r/*/c[@k='%s']", "/*/*[@k='%s']", "/r//*[@k='%s']",
}

func vxVal(rng *rand.Rand) string { return vxVals[rng.Intn(len(vxVals)-1+rng.Intn(2))] }

func vxChild(rng *rand.Rand) []token.Token {
	return []token.Token{token.Elem("c"), token.Attr("k", vxVal(rng)), token.EndAttr(), token.EndElem()}
}

// vxOrder is <o k=… j=…>t<c k=…/></o>.
func vxOrder(rng *rand.Rand) []token.Token {
	frag := []token.Token{token.Elem("o"), token.Attr("k", vxVal(rng)), token.EndAttr(), token.Attr("j", vxVal(rng)), token.EndAttr(), token.TextTok("t")}
	return append(append(frag, vxChild(rng)...), token.EndElem())
}

func vxDoc(rng *rand.Rand, orders int) []token.Token {
	frag := []token.Token{token.Elem("r")}
	for i := 0; i < orders; i++ {
		frag = append(frag, vxOrder(rng)...)
	}
	return append(frag, token.EndElem())
}

// vxCheck asks shapes of the store through every pushdown entry point and
// compares with the oracle over the store's current content.
func vxCheck(t *testing.T, s *core.Store, rng *rand.Rand, shapes int, at string) {
	t.Helper()
	ctx := context.Background()
	d, err := FromStore(s)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	for i := 0; i < shapes; i++ {
		src := fmt.Sprintf(vxShapes[rng.Intn(len(vxShapes))], vxVal(rng))
		want := oracleIDs(t, d, src)
		got, err := QueryIDsCtx(ctx, s, src)
		if err != nil || !idsEqual(got, want) {
			t.Fatalf("%s: ids %s: got %v (%v), want %v", at, src, got, err, want)
		}
		first, ok, err := QueryFirstCtx(ctx, s, src)
		if err != nil || ok != (len(want) > 0) || ok && first != want[0] {
			t.Fatalf("%s: first %s: got %v/%v (%v), want head of %v", at, src, first, ok, err, want)
		}
		if n, err := QueryCountCtx(ctx, s, src); err != nil || n != len(want) {
			t.Fatalf("%s: count %s: got %d (%v), want %d", at, src, n, err, len(want))
		}
		if v, err := QueryValueCtx(ctx, s, "count("+src+")"); err != nil || v != strconv.Itoa(len(want)) {
			t.Fatalf("%s: value count(%s): got %q (%v), want %d", at, src, v, err, len(want))
		}
		wantVal := ""
		if len(want) > 0 {
			n, _ := d.NodeByID(want[0])
			wantVal = n.StringValue()
		}
		if v, err := QueryValueCtx(ctx, s, src); err != nil || v != wantVal {
			t.Fatalf("%s: value %s: got %q (%v), want %q", at, src, v, err, wantVal)
		}
	}
}

// vxMutate applies one random mutation. Errors a mutator returns for a
// target that a previous step removed are part of the interleaving.
func vxMutate(t *testing.T, s *core.Store, tm *txn.Manager, rng *rand.Rand) string {
	t.Helper()
	d, err := FromStore(s)
	if err != nil {
		t.Fatal(err)
	}
	var root core.NodeID
	var elems, attrs []core.NodeID
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == Element && n.Name == "r" {
			root = n.ID
		} else if n.Kind == Element {
			elems = append(elems, n.ID)
		}
		for _, a := range n.Attrs {
			attrs = append(attrs, a.ID)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(d.RootNode)
	pick := func(ids []core.NodeID) core.NodeID {
		if len(ids) == 0 {
			return root
		}
		return ids[rng.Intn(len(ids))]
	}
	op := rng.Intn(15)
	switch op {
	case 0:
		_, err = s.InsertIntoLast(root, vxOrder(rng))
	case 1:
		_, err = s.InsertIntoFirst(root, vxOrder(rng))
	case 2:
		_, err = s.InsertAfter(pick(elems), vxOrder(rng))
	case 3:
		_, err = s.InsertBefore(pick(elems), vxChild(rng))
	case 4:
		_, err = s.InsertIntoLast(pick(elems), vxChild(rng))
	case 5:
		if len(elems) > 0 {
			err = s.DeleteNode(pick(elems))
		}
	case 6: // attribute update
		if len(attrs) > 0 {
			_, err = s.ReplaceNode(pick(attrs), []token.Token{token.Attr("k", vxVal(rng)), token.EndAttr()})
		}
	case 7: // one more attribute, possibly a second k on the element
		_, err = s.InsertIntoFirst(pick(elems), []token.Token{token.Attr("k", vxVal(rng)), token.EndAttr()})
	case 8:
		if len(elems) > 0 {
			_, err = s.ReplaceNode(pick(elems), vxOrder(rng))
		}
	case 9:
		_, err = s.ReplaceContent(pick(elems), vxChild(rng))
	case 10, 11: // a transaction, committed or aborted, probed while open
		tx := tm.Begin()
		_, err = tx.InsertIntoLast(root, vxOrder(rng))
		if err == nil && len(elems) > 0 {
			err = tx.DeleteNode(pick(elems))
		}
		vxCheck(t, s, rng, 3, "inside the transaction")
		vxCheck(t, s, rng, 3, "inside the transaction, again")
		if op == 10 && err == nil {
			err = tx.Commit()
		} else if aerr := tx.Abort(); aerr != nil {
			t.Fatalf("abort: %v", aerr)
		}
	case 12:
		err = s.Flush()
	case 13:
		_, err = s.Compact(0)
	case 14:
		_, err = s.Repair(true)
	}
	if err != nil && op >= 12 {
		t.Fatalf("op %d: %v", op, err)
	}
	return fmt.Sprintf("after op %d (%v)", op, err)
}

func TestValueIndexDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() || raceEnabled {
		seeds = 40 // the plain run covers the rest
	}
	var hits, fills uint64
	for _, mode := range []core.IndexMode{core.RangeOnly, core.RangePartial, core.FullIndex} {
		for _, granular := range []bool{true, false} {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				cfg := core.Config{Mode: mode}
				if granular {
					cfg.MaxRangeTokens = 4 + rng.Intn(12)
				} else {
					cfg.CoalesceBytes = 256 // and merge what the updates split
				}
				s, err := core.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Append(vxDoc(rng, 3+rng.Intn(5))); err != nil {
					t.Fatal(err)
				}
				tm := txn.NewManager(s)
				at := fmt.Sprintf("%v granular=%v seed %d: loaded", mode, granular, seed)
				for step := 0; step < 8; step++ {
					// Up to three asks of each shape between two writes: first
					// sight, fill, hit.
					for round := rng.Intn(4); round > 0; round-- {
						vxCheck(t, s, rng, 4, at)
					}
					at = fmt.Sprintf("%v granular=%v seed %d step %d: %s", mode, granular, seed, step, vxMutate(t, s, tm, rng))
					vxCheck(t, s, rng, 2, at)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				st := s.Stats()
				hits += st.ValueIndexHits
				fills += st.ValueIndexFills
				tm.Close()
				s.Close()
			}
		}
	}
	if hits == 0 || fills == 0 {
		t.Fatalf("the interleavings never reached the index: %d hits, %d fills", hits, fills)
	}
	t.Logf("%d hits, %d fills", hits, fills)
}

// TestValueIndexRepairDiscards: repair of a degraded store throws away what
// never reached the log, without any mutator running — the tables built over
// the discarded content must go with it.
func TestValueIndexRepairDiscards(t *testing.T) {
	inj := fault.NewInjector(fault.Config{})
	wp, err := wal.OpenWithOptions(filepath.Join(t.TempDir(), "store.db"), 512, wal.Options{
		WrapLog: func(f wal.File) wal.File { return fault.NewFile(inj, f) },
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Pager: wp, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	root, err := s.Append(vxDoc(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lost := []token.Token{token.Elem("o"), token.Attr("k", "lost"), token.EndAttr(), token.EndElem()}
	if _, err := s.InsertIntoLast(root, lost); err != nil {
		t.Fatal(err)
	}
	inj.ArmDiskFull(1)
	if err := s.Flush(); err == nil {
		t.Fatal("flush onto a full disk succeeded")
	}
	for i := 0; i < 3; i++ { // mark, fill, hit: the unlogged order is visible
		if n, err := QueryCountCtx(context.Background(), s, "//o[@k='lost']"); err != nil || n != 1 {
			t.Fatalf("before repair: %d (%v)", n, err)
		}
	}
	inj.FreeSpace()
	if _, err := s.Repair(true); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ValueIndexHits == 0 {
		t.Fatal("the table was never hit")
	}
	vxCheck(t, s, rng, 2*len(vxShapes), "after repair")
	if n, err := QueryCountCtx(context.Background(), s, "//o[@k='lost']"); err != nil || n != 0 {
		t.Fatalf("after repair the discarded order is still answered: %d (%v)", n, err)
	}
}

// TestValueIndexCounters follows one shape through first sight, fill and hits
// by the counters an operator reads, and checks that hits scan nothing.
func TestValueIndexCounters(t *testing.T) {
	s, _ := diffStoreTokens(t, workload.New(2005).PurchaseOrdersDoc(200))
	ctx := context.Background()
	want := func(at string, hits, misses, fills uint64) {
		t.Helper()
		st := s.Stats()
		if st.ValueIndexHits != hits || st.ValueIndexMisses != misses || st.ValueIndexFills != fills || st.ValueIndexAbandoned != 0 {
			t.Fatalf("%s: hits/misses/fills/abandoned = %d/%d/%d/%d, want %d/%d/%d/0", at,
				st.ValueIndexHits, st.ValueIndexMisses, st.ValueIndexFills, st.ValueIndexAbandoned, hits, misses, fills)
		}
	}
	ask := func(i int) {
		t.Helper()
		src := fmt.Sprintf("/purchase-orders/purchase-order[@id='PO-%06d']", i)
		if ids, err := QueryIDsCtx(ctx, s, src); err != nil || len(ids) != 1 {
			t.Fatalf("%s: %v %v", src, ids, err)
		}
	}
	ask(1)
	want("first sight", 0, 1, 0)
	ask(2) // another literal, the same shape: asked twice
	want("fill", 0, 2, 1)
	scanned := s.Stats().TokensScanned
	for i := 3; i < 50; i++ {
		ask(i)
	}
	want("hits", 47, 2, 1)
	if b := s.Stats().ValueIndexBytes; b < 200*(valueCost+idCost) {
		t.Fatalf("a table of 200 values is charged %d bytes", b)
	}
	if st := s.Stats(); st.TokensScanned != scanned || st.PushdownQueries != 49 || st.FallbackQueries != 0 {
		t.Fatalf("hits scanned %d tokens; %d pushdown, %d fallback queries", st.TokensScanned-scanned, st.PushdownQueries, st.FallbackQueries)
	}
	// An anchored call never probes.
	root, _, _ := s.FirstNodeID()
	if ids, err := QueryNodeIDsCtx(ctx, s, root, "//purchase-order[@id='PO-000007']"); err != nil || len(ids) != 1 {
		t.Fatalf("anchored: %v %v", ids, err)
	}
	want("anchored", 47, 2, 1)
	// A write makes the table stale: first sight again, and no fill while a
	// write separates every two asks.
	for i := 0; i < 3; i++ {
		if _, err := s.InsertIntoLast(root, workload.New(7).PurchaseOrder(1000+i)); err != nil {
			t.Fatal(err)
		}
		ask(5)
	}
	want("beside writes", 47, 5, 1)
	if b := s.Stats().ValueIndexBytes; b > 256 {
		t.Fatalf("a marker is charged %d bytes: the stale table is still held", b)
	}
	ask(5)
	ask(5)
	want("refilled", 48, 6, 2)
}

// TestValueIndexShapesDoNotCollide: a warm `//c` table must not answer `/*/c`
// (and so on): paths that differ only in where `*` and `//` stand are
// different shapes with different tables.
func TestValueIndexShapesDoNotCollide(t *testing.T) {
	s, d := diffStore(t, `<r><o k="a"><c k="a"/></o><c k="a"/><o k="b"><o k="a"><c k="a"/></o></o></r>`)
	ctx := context.Background()
	groups := [][]string{
		{"//c[@k='a']", "/*/c[@k='a']", "/r/*/c[@k='a']", "/r//c[@k='a']"},
		{"//*[@k='a']", "/*/*[@k='a']", "/r/*//*[@k='a']", "/r//*/*[@k='a']"},
		{"/r/*//c[@k='a']", "/r//*/c[@k='a']"},
	}
	for _, g := range groups {
		for _, warm := range g {
			for i := 0; i < 3; i++ { // mark, fill, hit
				if _, err := QueryCountCtx(ctx, s, warm); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range g {
				want := oracleIDs(t, d, src)
				if got, err := QueryIDsCtx(ctx, s, src); err != nil || !idsEqual(got, want) {
					t.Errorf("%s after warming %s: got %v (%v), want %v", src, warm, got, err, want)
				}
			}
		}
	}
	if s.Stats().ValueIndexHits == 0 {
		t.Fatal("nothing was answered from a table")
	}
}

// TestValueIndexAbandon: a table that outgrows the Plans share is given up
// mid-scan, once per generation, and the answers stay right.
func TestValueIndexAbandon(t *testing.T) {
	s, err := core.Open(core.Config{Mode: core.RangePartial, MemoryBudget: 64 << 10}) // Plans share: 6.4 KB
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root, err := s.Append(workload.New(2005).PurchaseOrdersDoc(400))
	if err != nil {
		t.Fatal(err)
	}
	ask := func() {
		t.Helper()
		if ids, err := QueryIDsCtx(context.Background(), s, "//purchase-order[@id='PO-000399']"); err != nil || len(ids) != 1 {
			t.Fatalf("%v %v", ids, err)
		}
	}
	for i := 0; i < 5; i++ {
		ask()
	}
	if st := s.Stats(); st.ValueIndexAbandoned != 1 || st.ValueIndexFills != 0 || st.ValueIndexHits != 0 || st.ValueIndexMisses != 5 {
		t.Fatalf("abandon: %+v", st)
	}
	if _, err := s.InsertIntoLast(root, workload.New(7).PurchaseOrder(1000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ask()
	}
	if st := s.Stats(); st.ValueIndexAbandoned != 2 || st.ValueIndexMisses != 8 {
		t.Fatalf("abandon after a write: %+v", st)
	}
	// A small table fits the same share.
	for i := 0; i < 3; i++ {
		if n, err := QueryCountCtx(context.Background(), s, "count(//purchase-order[@status='open'])"); err != nil || n == 0 {
			t.Fatalf("count: %d %v", n, err)
		}
	}
	if st := s.Stats(); st.ValueIndexFills != 1 || st.ValueIndexHits != 1 {
		t.Fatalf("small table: %+v", st)
	}
}

// TestValueIndexAbandonUnbudgeted: with no memory budget (the default) a
// table is still bounded, by unbudgetedTableBytes.
func TestValueIndexAbandonUnbudgeted(t *testing.T) {
	const n = 50_000 // ≈110 bytes a distinct value: well past 4 MB
	frag := make([]token.Token, 0, 4*n+2)
	frag = append(frag, token.Elem("r"))
	for i := 0; i < n; i++ {
		frag = append(frag, token.Elem("c"), token.Attr("k", fmt.Sprintf("v%07d", i)), token.EndAttr(), token.EndElem())
	}
	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(append(frag, token.EndElem())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if ids, err := QueryIDsCtx(context.Background(), s, "//c[@k='v0049999']"); err != nil || len(ids) != 1 {
			t.Fatalf("%v %v", ids, err)
		}
	}
	st := s.Stats()
	if st.ValueIndexAbandoned != 1 || st.ValueIndexFills != 0 || st.ValueIndexHits != 0 || st.ValueIndexBytes > 1024 {
		t.Fatalf("a table past %d bytes was not given up: %+v", unbudgetedTableBytes, st)
	}
}

// TestValueIndexOneFiller: readers that meet the same current mark do not all
// build the table; one fills, the others scan or hit what it published. A fill
// that fails hands the mark back, so a later ask can fill.
func TestValueIndexOneFiller(t *testing.T) {
	s, d := diffStoreTokens(t, workload.New(2005).PurchaseOrdersDoc(300))
	const q = "//purchase-order[@status='open']"
	want := oracleIDs(t, d, q)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := QueryIDsCtx(context.Background(), s, q); err != nil { // first sight
		t.Fatal(err)
	}
	if _, err := QueryIDsCtx(cancelled, s, q); err == nil { // a fill that fails
		t.Fatal("a cancelled fill answered")
	}
	if st := s.Stats(); st.ValueIndexFills != 0 {
		t.Fatalf("a failed fill was counted: %+v", st)
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got, err := QueryIDsCtx(context.Background(), s, q); err != nil || !idsEqual(got, want) {
					t.Errorf("got %v (%v), want %v", got, err, want)
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.ValueIndexFills != 1 || st.ValueIndexHits == 0 || st.ValueIndexHits+st.ValueIndexMisses != 33 {
		t.Fatalf("8 readers on one marked shape: %+v", st)
	}
}

// TestValueIndexOff: PlanCacheEntries < 0 switches the index off with the
// plan cache.
func TestValueIndexOff(t *testing.T) {
	s, err := core.Open(core.Config{PlanCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	if _, err := s.Append(vxDoc(rng, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		vxCheck(t, s, rng, len(vxShapes), "cache off")
	}
	if st := s.Stats(); st.ValueIndexHits+st.ValueIndexMisses+st.ValueIndexFills != 0 || st.ValueIndexBytes != 0 {
		t.Fatalf("index counted with the plan cache off: %+v", st)
	}
}

// TestValueIndexHitsAreClipped: a hit returns a view of the shared table; an
// append by the caller must copy, not write into it.
func TestValueIndexHitsAreClipped(t *testing.T) {
	s, _ := diffStoreTokens(t, workload.New(2005).PurchaseOrdersDoc(50))
	ctx := context.Background()
	const all = "//purchase-order[@status='open']"
	var want []core.NodeID
	for i := 0; i < 3; i++ {
		ids, err := QueryIDsCtx(ctx, s, all)
		if err != nil || len(ids) < 2 {
			t.Fatalf("%v %v", ids, err)
		}
		want = append([]core.NodeID(nil), ids...)
	}
	ids, _ := QueryIDsCtx(ctx, s, all)
	if cap(ids) != len(ids) {
		t.Fatalf("a hit handed out %d spare slots of the table", cap(ids)-len(ids))
	}
	_ = append(ids, 12345)
	p, err := CompileStore(s, all)
	if err != nil {
		t.Fatal(err)
	}
	one, n, err := p.pushdown(ctx, s, core.InvalidNode, 1)
	if err != nil || n != 1 || len(one) != 1 || cap(one) != 1 {
		t.Fatalf("limit 1: %v (cap %d) n=%d %v", one, cap(one), n, err)
	}
	_ = append(one, 54321)
	if got, _ := QueryIDsCtx(ctx, s, all); !idsEqual(got, want) {
		t.Fatalf("the table changed under a caller's append: %v, want %v", got, want)
	}
	if st := s.Stats(); st.ValueIndexHits < 3 {
		t.Fatalf("not answered from the table: %+v", st)
	}
}

// TestValueIndexRace: readers probing and filling one shape beside a writer.
// Every count lies between what the writer had been acknowledged before the
// query and what it had attempted after; every id a reader is given reads or
// is cleanly gone; once the writer stops, everyone agrees with the oracle.
func TestValueIndexRace(t *testing.T) {
	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := workload.New(2005)
	root, err := s.Append(gen.PurchaseOrdersDoc(100))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "//purchase-order[@status='racing']"
	order := func(i int, status string) []token.Token {
		frag := gen.PurchaseOrder(5000 + i)
		for j := range frag {
			if frag[j].Kind == token.BeginAttribute && frag[j].Name == "status" {
				frag[j].Value = status
			}
		}
		return frag
	}
	var acked, attempted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer: matching and non-matching orders, in bursts
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			status := "racing"
			if i%3 == 0 {
				status = "idle"
			}
			if status == "racing" {
				attempted.Add(1)
			}
			if _, err := s.InsertIntoLast(root, order(i, status)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if status == "racing" {
				acked.Add(1)
			}
			if i%8 == 7 { // a pause long enough for a fill and some hits
				for k := 0; k < 50; k++ {
					if _, err := QueryCountCtx(ctx, s, q); err != nil {
						t.Errorf("writer's own count: %v", err)
					}
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := acked.Load()
				var n int
				var ids []core.NodeID
				var err error
				if i%2 == r%2 {
					n, err = QueryCountCtx(ctx, s, q)
				} else {
					ids, err = QueryIDsCtx(ctx, s, q)
					n = len(ids)
				}
				hi := attempted.Load()
				if err != nil || int64(n) < lo || int64(n) > hi {
					t.Errorf("reader %d: %d matches (%v), writer was between %d and %d", r, n, err, lo, hi)
					return
				}
				if len(ids) > 0 {
					if _, err := s.ReadNode(ids[len(ids)-1]); err != nil {
						t.Errorf("reader %d: id %d from the index does not read: %v", r, ids[len(ids)-1], err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	d, err := FromStore(s)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleIDs(t, d, q)
	if int64(len(want)) != acked.Load() {
		t.Fatalf("oracle sees %d racing orders, writer was acknowledged %d", len(want), acked.Load())
	}
	for i := 0; i < 3; i++ {
		if got, err := QueryIDsCtx(ctx, s, q); err != nil || !idsEqual(got, want) {
			t.Fatalf("after the writer stopped: %v (%v), want %v", got, err, want)
		}
	}
	if st := s.Stats(); st.ValueIndexHits == 0 || st.ValueIndexFills == 0 {
		t.Fatalf("the race never reached the index: %+v", st)
	}
}

package xpath

// The lazy value index against its oracle. A stale table is the only new way
// a pushdown query can be wrong, so the differential suite interleaves every
// mutator with probe-shape queries asked often enough to mark, fill and hit,
// and compares each answer with BuildDoc + the tree evaluator. It fails when
// the generation bump is taken out of core.writableLocked or
// core.reloadLocked.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/token"

	"repro/internal/wal"
	"repro/internal/workload"
)

// vxVals are the values in play: shared by many elements, empty, one ("ab")
// that also arises split over two tokens, and one ("zz") that is usually
// absent.
var vxVals = []string{"a", "b", "", "a", "b", "c", "ab", "zz"}

// vxShapes are probe shapes over the test document, %s the literal.
var vxShapes = []string{
	"/r/o[@k='%s']", "//o[@k='%s']", "//c[@k='%s']", "//*[@k='%s']", "/r/o/c['%s'=@k]", "//o[@j='%s']",
	// wildcard steps beside the `//` forms they must not share a table with
	"/*/o[@k='%s']", "/r/*/c[@k='%s']", "/*/*[@k='%s']", "/r//*[@k='%s']",
	// child and text atoms, [N] and a rest behind them
	"//o[c='%s']", "/r/o['%s'=c]", "//o[text()='%s']", "//*[text()='%s']", "//o[c='%s'][1]", "/r/o[c='%s'][2]",
	"//o[c='%s'][2]/d", "/r/o[c='%s'][2]/d", "//o[@k='%s'][1]/d/@a", "/r/o[@k='%s']/d/@a", "//o[c='%s']//d",
	"/r/o[c='%s']//d", "/r/*/o[c='%s'][1]/d", "/r/o[c='%s']/d[@a='a'][1]", "/r/o[text()='%s'][1]/c", "//o[@j='%s']//@a",
}

func vxVal(rng *rand.Rand) string { return vxVals[rng.Intn(len(vxVals)-1+rng.Intn(2))] }

// vxChild is <c k=…>…</c>: empty, one text token, the value split over two
// adjacent text tokens, or split around a nested element.
func vxChild(rng *rand.Rand) []token.Token {
	frag := []token.Token{token.Elem("c"), token.Attr("k", vxVal(rng)), token.EndAttr()}
	switch v := vxVal(rng); {
	case v == "":
	case len(v) == 1:
		frag = append(frag, token.TextTok(v))
	case rng.Intn(2) == 0:
		frag = append(frag, token.TextTok(v[:1]), token.TextTok(v[1:]))
	default:
		frag = append(frag, token.TextTok(v[:1]), token.Elem("e"), token.TextTok(v[1:]), token.EndElem())
	}
	return append(frag, token.EndElem())
}

// vxOrder is <o k=… j=…>text <c/> [<c/>] <d a=…>t</d>* [<o>…</o> [<c/>] [text]]</o>:
// sometimes two value children, sometimes no <d> for a rest to find, and
// sometimes an order nested in it with a value child of the outer one after
// it — the child the fill scan meets after the inner order's.
func vxOrder(rng *rand.Rand) []token.Token { return vxOrderAt(rng, 0) }

func vxOrderAt(rng *rand.Rand, depth int) []token.Token {
	text := func(frag []token.Token) []token.Token {
		if v := vxVal(rng); v != "" {
			frag = append(frag, token.TextTok(v))
		}
		return frag
	}
	frag := text([]token.Token{token.Elem("o"), token.Attr("k", vxVal(rng)), token.EndAttr(), token.Attr("j", vxVal(rng)), token.EndAttr()})
	frag = append(frag, vxChild(rng)...)
	if rng.Intn(3) == 0 {
		frag = append(frag, vxChild(rng)...)
	}
	for n := rng.Intn(3); n > 0; n-- {
		frag = append(frag, token.Elem("d"), token.Attr("a", vxVal(rng)), token.EndAttr(), token.TextTok("t"), token.EndElem())
	}
	if depth < 2 && rng.Intn(3) == 0 {
		frag = append(frag, vxOrderAt(rng, depth+1)...)
		if rng.Intn(2) == 0 {
			frag = append(frag, vxChild(rng)...)
		}
		frag = text(frag)
	}
	return append(frag, token.EndElem())
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
			wantVal = nodeByID(d.RootNode, want[0]).StringValue()
		}
		if v, err := QueryValueCtx(ctx, s, src); err != nil || v != wantVal {
			t.Fatalf("%s: value %s: got %q (%v), want %q", at, src, v, err, wantVal)
		}
	}
}

// vxMutate applies one random mutation. Errors a mutator returns for a
// target that a previous step removed are part of the interleaving.
func vxMutate(t *testing.T, s *core.Store, rng *rand.Rand) string {
	t.Helper()
	d, err := FromStore(s)
	if err != nil {
		t.Fatal(err)
	}
	var root core.NodeID
	var elems, attrs, texts []core.NodeID
	var walk func(n *Node)
	walk = func(n *Node) {
		switch {
		case n.Kind == Element && n.Name == "r":
			root = n.ID
		case n.Kind == Element:
			elems = append(elems, n.ID)
		case n.Kind == TextNode:
			texts = append(texts, n.ID)
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
	op := rng.Intn(16)
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
	case 10, 11: // a batch, committed or aborted, probed after it returns
		errAbort := errors.New("abort")
		err = s.Update(context.Background(), func(b *core.Batch) error {
			_, err := b.InsertIntoLast(root, vxOrder(rng))
			if err == nil && len(elems) > 0 {
				err = b.DeleteNode(pick(elems))
			}
			if err == nil && op == 11 {
				err = errAbort
			}
			return err
		})
		if errors.Is(err, errAbort) {
			err = nil
		}
	case 12:
		err = s.Flush()
	case 13:
		_, err = s.Compact(0)
	case 14:
		_, err = s.Repair(true)
	case 15: // a text node: a child's string-value, or a text child, changes
		if len(texts) > 0 {
			_, err = s.ReplaceNode(pick(texts), []token.Token{token.TextTok("a")})
		}
	}
	if err != nil && op >= 12 && op <= 14 {
		t.Fatalf("op %d: %v", op, err)
	}
	return fmt.Sprintf("after op %d (%v)", op, err)
}

// TestValueIndexDifferential runs one parallel subtest per (mode, granular)
// over every seed; the group's hits and fills are summed after it ends.
func TestValueIndexDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() || raceEnabled {
		seeds = 40 // the plain run covers the rest
	}
	var hits, fills atomic.Uint64
	t.Run("group", func(t *testing.T) {
		for _, mode := range []core.IndexMode{core.RangeOnly, core.RangePartial, core.FullIndex} {
			for _, granular := range []bool{true, false} {
				t.Run(fmt.Sprintf("%v/granular=%v", mode, granular), func(t *testing.T) {
					t.Parallel()
					for seed := 0; seed < seeds; seed++ {
						h, f := vxDifferential(t, mode, granular, seed)
						hits.Add(h)
						fills.Add(f)
					}
				})
			}
		}
	})
	if hits.Load() == 0 || fills.Load() == 0 {
		t.Fatalf("the interleavings never reached the index: %d hits, %d fills", hits.Load(), fills.Load())
	}
	t.Logf("%d hits, %d fills", hits.Load(), fills.Load())
}

// vxDifferential is one seed of TestValueIndexDifferential: a store loaded
// and mutated eight times, with probe-shape queries between the writes, each
// answer checked against the oracle. It returns the store's value-index hits
// and fills.
func vxDifferential(t *testing.T, mode core.IndexMode, granular bool, seed int) (hits, fills uint64) {
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
	defer s.Close()
	if _, err := s.Append(vxDoc(rng, 3+rng.Intn(5))); err != nil {
		t.Fatal(err)
	}
	at := fmt.Sprintf("%v granular=%v seed %d: loaded", mode, granular, seed)
	for step := 0; step < 8; step++ {
		// Up to three asks of each shape between two writes: first sight,
		// fill, hit.
		for round := rng.Intn(4); round > 0; round-- {
			vxCheck(t, s, rng, 4, at)
		}
		at = fmt.Sprintf("%v granular=%v seed %d step %d: %s", mode, granular, seed, step, vxMutate(t, s, rng))
		vxCheck(t, s, rng, 2, at)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	st := s.Stats()
	return st.ValueIndexHits, st.ValueIndexFills
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

// TestValueIndexLimitedCallerNeverFills (ROADMAP 8 c): first/Exists and a
// path's QueryValueCtx stop their literal scan at the first match; a fill
// reads the whole document. They use a table, they never build one.
func TestValueIndexLimitedCallerNeverFills(t *testing.T) {
	s, _ := diffStoreTokens(t, workload.New(2005).PurchaseOrdersDoc(200))
	ctx := context.Background()
	const q = "//purchase-order[@status='open']"
	ask := func() uint64 {
		t.Helper()
		before := s.Stats().TokensScanned
		if _, ok, err := QueryFirstCtx(ctx, s, q); err != nil || !ok {
			t.Fatalf("first: %v %v", ok, err)
		}
		return s.Stats().TokensScanned - before
	}
	early := ask()
	if all := s.Stats().Tokens; early*10 > uint64(all) {
		t.Fatalf("the first match is not early: %d of %d tokens", early, all)
	}
	for i := 0; i < 9; i++ {
		if n := ask(); n != early {
			t.Fatalf("ask %d scanned %d tokens, the early exit is %d", i+2, n, early)
		}
	}
	if ok, err := QueryExistsCtx(ctx, s, q); err != nil || !ok {
		t.Fatalf("exists: %v %v", ok, err)
	}
	if v, err := QueryValueCtx(ctx, s, q+"/customer"); err != nil || v == "" {
		t.Fatalf("value: %q %v", v, err)
	}
	if st := s.Stats(); st.ValueIndexFills != 0 || st.ValueIndexHits != 0 || st.ValueIndexMisses != 12 {
		t.Fatalf("limited asks: %+v", st)
	}
	// They did mark the shape: the first unlimited ask fills, and then a
	// limited one is a hit that scans nothing.
	if ids, err := QueryIDsCtx(ctx, s, q); err != nil || len(ids) == 0 {
		t.Fatalf("ids: %v %v", ids, err)
	}
	if st := s.Stats(); st.ValueIndexFills != 1 {
		t.Fatalf("an unlimited ask of a marked shape did not fill: %+v", st)
	}
	if n := ask(); n != 0 || s.Stats().ValueIndexHits != 1 {
		t.Fatalf("first after the fill scanned %d tokens: %+v", n, s.Stats())
	}
}

// TestValueIndexRestFallsBack: the two cases in which a current table hands a
// query with a rest to the scan — head elements that may nest, and more of
// them than anchored reads are worth — are misses, and right.
func TestValueIndexRestFallsBack(t *testing.T) {
	// 150 <x/> so that it is the nesting, not the count, that decides here.
	s, d := diffStore(t, `<r><o><c>a</c><d/><o><c>a</c><d/></o><d/></o><o><c>b</c><d/></o>`+strings.Repeat("<x/>", 150)+`</r>`)
	ctx := context.Background()
	ask := func(src string, hits, misses uint64) {
		t.Helper()
		want := oracleIDs(t, d, src)
		if got, err := QueryIDsCtx(ctx, s, src); err != nil || !idsEqual(got, want) {
			t.Fatalf("%s: got %v (%v), want %v", src, got, err, want)
		}
		if st := s.Stats(); st.ValueIndexHits != hits || st.ValueIndexMisses != misses {
			t.Fatalf("%s: %d hits, %d misses, want %d and %d", src, st.ValueIndexHits, st.ValueIndexMisses, hits, misses)
		}
	}
	ask("//o[c='a']", 0, 1)
	ask("//o[c='a']", 0, 2) // the fill
	ask("//o[c='a']", 1, 2)
	ask("//o[c='b']/d", 2, 2)    // one element: read below it
	ask("//o[c='a']/d", 2, 3)    // two, and one inside the other: /d would come out of order
	ask("//o[c='a'][2]/d", 3, 3) // [2] leaves none
	ask("//o[c='a'][1]/d", 3, 4) // [1] leaves both: each is the first under its parent
	ask("/r/o[c='a']/d", 3, 5)   // another head: first sight

	// Past the crossover: 60 elements × tailReadTokens against a document of
	// some 500 tokens.
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 60; i++ {
		b.WriteString("<o><c>a</c><d/></o>")
	}
	b.WriteString("<o><c>b</c><d/></o></r>")
	s, d = diffStore(t, b.String())
	ask("/r/o[c='a']", 0, 1)
	ask("/r/o[c='a']", 0, 2)
	ask("/r/o[c='b']/d", 1, 2)
	ask("/r/o[c='a']/d", 1, 3)
	ask("/r/o[c='a'][7]/d", 2, 3)
}

// TestValueIndexShapesDoNotCollide: a warm `//c` table must not answer `/*/c`
// (and so on): paths that differ only in where `*` and `//` stand are
// different shapes with different tables.
func TestValueIndexShapesDoNotCollide(t *testing.T) {
	s, d := diffStore(t, `<r><o k="a"><c k="a"/></o><c k="a"/><o k="b"><o k="a"><c k="a"/></o></o>`+
		`<o c="a">b<c>c</c></o><o c="b">c<c>a</c></o><o c="c">a<c>b</c></o></r>`)
	ctx := context.Background()
	groups := [][]string{
		{"//c[@k='a']", "/*/c[@k='a']", "/r/*/c[@k='a']", "/r//c[@k='a']"},
		{"//*[@k='a']", "/*/*[@k='a']", "/r/*//*[@k='a']", "/r//*/*[@k='a']"},
		{"/r/*//c[@k='a']", "/r//*/c[@k='a']"},
		// one path, three kinds of atom: an attribute, a child and text() named alike
		{"//o[c='a']", "//o[@c='a']", "//o[text()='a']", "//o[c='a']/c", "//o[@c='a'][1]/c", "//o[text()='a'][1]"},
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
	root, err := s.Append(workload.New(2005).PurchaseOrdersDoc(300))
	if err != nil {
		t.Fatal(err)
	}
	ask := func() {
		t.Helper()
		if ids, err := QueryIDsCtx(context.Background(), s, "//purchase-order[@id='PO-000299']"); err != nil || len(ids) != 1 {
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
	// A small table — three values, 16 bytes an order — fits the same share.
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

// TestValueIndexRace: readers probing and filling one head — alone, and with
// [1] and a rest behind it — beside a writer that appends matching orders and
// deletes the first one, the element [1] names. Every count lies between what
// the writer had been acknowledged before the query and what it had attempted
// after; the last id of every answer reads, unless enough deletes began after
// the query to have reached it; a rest read off
// an element the writer deleted meanwhile is never an error; once the writer
// stops, everyone agrees with the oracle. The last step replays, by hand, the
// one schedule the generation re-check of a hit with a rest exists for.
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
	const tail = q + "[1]/date"
	order := func(i int, status string) []token.Token {
		frag := gen.PurchaseOrder(5000 + i)
		for j := range frag {
			if frag[j].Kind == token.BeginAttribute && frag[j].Name == "status" {
				frag[j].Value = status
			}
		}
		return frag
	}
	var acked, attempted, delStarted, delDone atomic.Int64 // inserts and deletes of racing orders
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer: matching and non-matching orders, in bursts
		defer wg.Done()
		defer close(stop)
		var racing []core.NodeID // in document order
		for i := 0; i < 300; i++ {
			status := "racing"
			if i%3 == 0 {
				status = "idle"
			}
			if status == "racing" {
				attempted.Add(1)
			}
			id, err := s.InsertIntoLast(root, order(i, status))
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if status == "racing" {
				acked.Add(1)
				racing = append(racing, id)
			}
			if i%5 == 4 && len(racing) > 0 { // the order `[1]` names goes
				delStarted.Add(1)
				if err := s.DeleteNode(racing[0]); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
				delDone.Add(1)
				racing = racing[1:]
			}
			if i%8 == 7 { // a pause long enough for a fill and some hits
				for k := 0; k < 50; k++ {
					if _, err := QueryCountCtx(ctx, s, q); err != nil {
						t.Errorf("writer's own count: %v", err)
					}
					if _, err := QueryIDsCtx(ctx, s, tail); err != nil {
						t.Errorf("writer's own %s: %v", tail, err)
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
				if i%3 == 0 {
					// One date, or none; never the error of a read below an order
					// that was deleted after the table named it.
					ids, err := QueryIDsCtx(ctx, s, tail)
					if err != nil || len(ids) > 1 {
						t.Errorf("reader %d: %s: %v (%v)", r, tail, ids, err)
						return
					}
					continue
				}
				// Deletes counted before the query: all done before it began
				// unless the last of them was still in flight.
				started0 := delStarted.Load()
				inFlight := delDone.Load() < started0
				in, gone := acked.Load(), delDone.Load()
				var n int
				var ids []core.NodeID
				var err error
				if i%2 == r%2 {
					n, err = QueryCountCtx(ctx, s, q)
				} else {
					ids, err = QueryIDsCtx(ctx, s, q)
					n = len(ids)
				}
				lo, hi := in-delStarted.Load(), attempted.Load()-gone
				if err != nil || int64(n) < lo || int64(n) > hi {
					t.Errorf("reader %d: %d matches (%v), writer was between %d and %d", r, n, err, lo, hi)
					return
				}
				// The writer deletes the first racing order in document order,
				// so the last of k ids can be gone only after k deletes — k-1
				// if one was in flight when the query began, its order still
				// in the answer — started after the query did.
				if k := int64(len(ids)); k > 0 {
					if _, err := s.ReadNode(ids[k-1]); err != nil {
						need := k
						if inFlight {
							need--
						}
						if since := delStarted.Load() - started0; since < need {
							t.Errorf("reader %d: id %d, last of %d from the index, does not read after %d deletes began: %v", r, ids[k-1], k, since, err)
							return
						}
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
	if int64(len(want)) != acked.Load()-delDone.Load() {
		t.Fatalf("oracle sees %d racing orders, writer was acknowledged %d", len(want), acked.Load()-delDone.Load())
	}
	for i := 0; i < 3; i++ {
		if got, err := QueryIDsCtx(ctx, s, q); err != nil || !idsEqual(got, want) {
			t.Fatalf("after the writer stopped: %v (%v), want %v", got, err, want)
		}
	}
	if st := s.Stats(); st.ValueIndexHits == 0 || st.ValueIndexFills == 0 {
		t.Fatalf("the race never reached the index: %+v", st)
	}

	// A reader looks the table up; the writer deletes the order `[1]` names;
	// the reader reads below it. Its answer must go to the scan.
	p, err := CompileStore(s, tail)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // mark, fill, hit
		if _, err := QueryIDsCtx(ctx, s, tail); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := s.PlanCache().Get(p.probeKey)
	table, ok := v.(*valueTable)
	if !ok || table.gen != s.Generation() {
		t.Fatalf("no current table under %s: %T", p.probeKey, v)
	}
	if ids, _, ok, err := p.answer(ctx, s, table, -1); !ok || err != nil || len(ids) != 1 {
		t.Fatalf("before the delete: %v ok=%v (%v)", ids, ok, err)
	}
	if err := s.DeleteNode(want[0]); err != nil {
		t.Fatal(err)
	}
	if ids, n, ok, err := p.answer(ctx, s, table, -1); ok {
		t.Fatalf("a hit answered across a write: %v n=%d (%v)", ids, n, err)
	}
	if d, err = FromStore(s); err != nil {
		t.Fatal(err)
	}
	if got, err := QueryIDsCtx(ctx, s, tail); err != nil || !idsEqual(got, oracleIDs(t, d, tail)) {
		t.Fatalf("after the delete: %v (%v), want %v", got, err, oracleIDs(t, d, tail))
	}
}

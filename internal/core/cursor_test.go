package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/token"
	"repro/internal/xmltok"
)

// The range cursor's differential: every way of reading through the cursor —
// subtree reads as items, as raw tokens and as XML, navigation, whole-store
// scans — against the naive reference store, id for id and token for token,
// while splits, coalesces, deletes and replaces keep bumping range versions
// under the chain directories and replay checkpoints the reads leave behind.
// Pages are 512 bytes, so a coarse range spills over dozens of overflow
// pages, text values up to three chunks long straddle chunk boundaries, and
// inserts into the middle of elements leave nodes spanning ranges.

// opScript is the byte string that drives a differential run: the tests take
// it from a seeded generator, the fuzz target from the fuzzer.
type opScript struct {
	b []byte
	i int
}

func (s *opScript) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *opScript) more() bool { return s.i < len(s.b) }

var scriptNames = []string{"a", "b", "item", "purchase-order"}

// frag builds one well-formed fragment: elements with attributes, text whose
// length runs from nothing to a few chunks and which needs escaping, comments
// and processing instructions.
func (s *opScript) frag() []Token {
	var out []Token
	var build func(depth int)
	build = func(depth int) {
		switch v := s.next(); v % 8 {
		case 0, 1, 2, 3:
			out = append(out, token.Elem(scriptNames[v/8%len(scriptNames)]))
			for a := s.next() % 3; a > 0; a-- {
				out = append(out, token.Attr(fmt.Sprintf("k%d", a), s.text(40)), token.EndAttr())
			}
			if depth < 3 {
				for c := s.next() % 4; c > 0; c-- {
					build(depth + 1)
				}
			}
			out = append(out, token.EndElem())
		case 4, 5:
			out = append(out, token.TextTok(s.text(1500)))
		case 6:
			out = append(out, token.CommentTok(s.text(30)))
		case 7:
			out = append(out, token.PITok("pi", s.text(30)))
		}
	}
	for n := 1 + s.next()%3; n > 0; n-- {
		build(0)
	}
	return out
}

func (s *opScript) text(max int) string {
	n, salt := s.next(), s.next()
	if n >= 240 {
		n = max * (n - 239) / 16 // a few tokens longer than a chunk, up to max
	} else {
		n %= 48
	}
	const alphabet = `abc <>&"' xyz`
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[(salt+i*7)%len(alphabet)])
	}
	return sb.String()
}

// refXML is the oracle for node XML: the serializer as it was before the
// byte-level writer — fmt and string replacers over materialized tokens —
// kept here, apart from the code under test.
func refXML(toks []Token) (string, error) {
	if len(toks) > 0 && toks[0].Kind == token.BeginAttribute {
		return fmt.Sprintf("%s=%q", toks[0].Name, toks[0].Value), nil
	}
	text := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attr := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
	var sb strings.Builder
	var stack []string
	open := false
	closeOpen := func() {
		if open {
			sb.WriteByte('>')
			open = false
		}
	}
	for _, t := range toks {
		switch t.Kind {
		case token.BeginDocument, token.EndDocument:
		case token.BeginElement:
			closeOpen()
			fmt.Fprintf(&sb, "<%s", t.Name)
			open = true
			stack = append(stack, t.Name)
		case token.BeginAttribute:
			if !open {
				return "", fmt.Errorf("attribute outside element start")
			}
			fmt.Fprintf(&sb, ` %s="%s"`, t.Name, attr.Replace(t.Value))
		case token.EndAttribute:
		case token.EndElement:
			if len(stack) == 0 {
				return "", fmt.Errorf("end element without open element")
			}
			if open {
				sb.WriteString("/>")
				open = false
			} else {
				fmt.Fprintf(&sb, "</%s>", stack[len(stack)-1])
			}
			stack = stack[:len(stack)-1]
		case token.Text:
			closeOpen()
			sb.WriteString(text.Replace(t.Value))
		case token.Comment:
			closeOpen()
			fmt.Fprintf(&sb, "<!--%s-->", t.Value)
		case token.PI:
			closeOpen()
			fmt.Fprintf(&sb, "<?%s %s?>", t.Name, t.Value)
		}
	}
	if len(stack) > 0 {
		return "", fmt.Errorf("%d unclosed elements", len(stack))
	}
	closeOpen()
	return sb.String(), nil
}

// Reference navigation over the flat model.

func (r *refStore) parentOf(i int) NodeID {
	depth := 0
	for j := i - 1; j >= 0; j-- {
		if t := r.items[j].Tok; t.IsEnd() {
			depth++
		} else if t.IsBegin() {
			if depth == 0 {
				return r.items[j].ID
			}
			depth--
		}
	}
	return InvalidNode
}

func (r *refStore) nodeStartingAt(j int) NodeID {
	if j >= len(r.items) || r.items[j].Tok.IsEnd() {
		return InvalidNode
	}
	return r.items[j].ID
}

// checkNode compares every cursor-backed view of one node with the model.
func checkNode(t testing.TB, s *Store, ref *refStore, id NodeID, what string) {
	t.Helper()
	i, err := ref.findBegin(id)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.items[i:ref.subtreeEnd(i)]
	items, err := s.ReadNode(id)
	if err != nil {
		t.Fatalf("%s: ReadNode(%d): %v", what, id, err)
	}
	if len(items) != len(want) {
		t.Fatalf("%s: ReadNode(%d): %d items, want %d", what, id, len(items), len(want))
	}
	toks := make([]Token, len(want))
	for j := range want {
		if items[j] != want[j] {
			t.Fatalf("%s: ReadNode(%d) item %d = {%d %s}, want {%d %s}", what, id, j, items[j].ID, items[j].Tok, want[j].ID, want[j].Tok)
		}
		toks[j] = want[j].Tok
	}
	// The raw scan passes the same tokens, as stored bytes, with the same ids.
	j := 0
	err = s.ScanNodeRawCtx(context.Background(), id, func(nid NodeID, raw []byte) bool {
		if tok, _, err := s.dict.Decode(raw); j < len(want) && (nid != want[j].ID || err != nil || tok != want[j].Tok) {
			t.Fatalf("%s: ScanNodeRaw(%d) token %d differs (id %d, want %d)", what, id, j, nid, want[j].ID)
		}
		j++
		return true
	})
	if err != nil || j != len(want) {
		t.Fatalf("%s: ScanNodeRaw(%d): %d tokens of %d, %v", what, id, j, len(want), err)
	}
	wantXML, err := refXML(toks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AppendNodeXML(context.Background(), []byte("kept:"), id)
	if err != nil || string(got) != "kept:"+wantXML {
		t.Fatalf("%s: AppendNodeXML(%d) = %q, %v; want %q", what, id, got, err, wantXML)
	}
	// Navigation, where it is defined for the node's kind.
	if p, ok, err := s.Parent(id); err != nil || ok != (ref.parentOf(i) != InvalidNode) || p != ref.parentOf(i) {
		t.Fatalf("%s: Parent(%d) = %d %v %v, want %d", what, id, p, ok, err, ref.parentOf(i))
	}
	if want[0].Tok.Kind != token.BeginAttribute {
		next := ref.nodeStartingAt(ref.subtreeEnd(i))
		if n, ok, err := s.NextSibling(id); err != nil || ok != (next != InvalidNode) || n != next {
			t.Fatalf("%s: NextSibling(%d) = %d %v %v, want %d", what, id, n, ok, err, next)
		}
	}
	if want[0].Tok.Kind == token.BeginElement {
		child := ref.nodeStartingAt(ref.skipAttrs(i + 1))
		if c, ok, err := s.FirstChild(id); err != nil || ok != (child != InvalidNode) || c != child {
			t.Fatalf("%s: FirstChild(%d) = %d %v %v, want %d", what, id, c, ok, err, child)
		}
	}
}

// checkRanges reads every range twice — whole, and through page-sized
// windows — and wants the same bytes, which decode to the model.
func checkRanges(t testing.TB, s *Store, ref *refStore, what string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	whole, windowed := s.cursor(context.Background()), s.cursor(context.Background())
	defer whole.close()
	defer windowed.close()
	k := 0
	ri, ok, err := s.firstRange()
	for ; ok && err == nil; ri, ok, err = s.nextRangeInfo(context.Background(), ri) {
		all, err := whole.all(ri)
		if err != nil {
			t.Fatalf("%s: all(%v): %v", what, ri, err)
		}
		next := ri.start
		for off := 0; off < ri.bytes; {
			raw, err := windowed.token(ri, off)
			if err != nil {
				t.Fatalf("%s: token(%v, %d): %v", what, ri, off, err)
			}
			if !bytes.Equal(raw, all[off:off+len(raw)]) {
				t.Fatalf("%s: %v: windowed token at %d differs from the whole read", what, ri, off)
			}
			tok, _, err := s.dict.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			id := InvalidNode
			if tok.StartsNode() {
				id = next
				next++
			}
			if k >= len(ref.items) || ref.items[k] != (Item{ID: id, Tok: tok}) {
				t.Fatalf("%s: %v: token %d of the store is {%d %s}, the model disagrees", what, ri, k, id, tok)
			}
			k++
			off += len(raw)
		}
	}
	if err != nil || k != len(ref.items) {
		t.Fatalf("%s: walked %d tokens of %d: %v", what, k, len(ref.items), err)
	}
}

var cursorConfigs = []struct {
	name string
	cfg  Config
}{
	{"range-coarse", Config{Mode: RangeOnly}},
	{"range-granular", Config{Mode: RangeOnly, MaxRangeTokens: 8}},
	{"partial-coarse", Config{Mode: RangePartial, PartialCapacity: 16}},
	{"partial-granular", Config{Mode: RangePartial, PartialCapacity: 16, MaxRangeTokens: 8}},
	{"partial-coalescing", Config{Mode: RangePartial, PartialCapacity: 16, CoalesceBytes: 2000}},
	{"full-coarse", Config{Mode: FullIndex}},
	{"full-granular", Config{Mode: FullIndex, MaxRangeTokens: 8}},
}

// runCursorDifferential plays one script, for at most maxSteps operations,
// against one configuration.
func runCursorDifferential(t testing.TB, cfg Config, sc *opScript, maxSteps int) {
	cfg.PageSize, cfg.PoolPages = pagestore.MinPageSize, 8 // the pool evicts all the time
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := newRefStore()
	// A first range of several dozen pages, under one root so that inserts
	// split it.
	seed := []Token{token.Elem("root")}
	for i := 0; i < 12; i++ {
		seed = append(seed, sc.frag()...)
	}
	seed = append(seed, token.EndElem())
	if _, err := s.Append(seed); err != nil {
		t.Fatal(err)
	}
	ref.append(seed)
	checkRanges(t, s, ref, "loaded")

	step := 0
	for ; sc.more() && step < maxSteps; step++ {
		ids, elems := ref.nodeIDs(), ref.elementIDs()
		if len(ids) == 0 {
			break
		}
		id := ids[(sc.next()*256+sc.next())%len(ids)]
		elem := InvalidNode
		if len(elems) > 0 {
			elem = elems[(sc.next()*256+sc.next())%len(elems)]
		}
		isAttr := ref.items[indexOf(t, ref, id)].Tok.Kind == token.BeginAttribute
		op := sc.next() % 10
		what := fmt.Sprintf("step %d op %d node %d", step, op, id)
		switch {
		case op < 4: // reads only: the lazy structures fill
		case op == 4 && !isAttr:
			frag := sc.frag()
			if _, err := s.InsertAfter(id, frag); err != nil {
				t.Fatalf("%s: InsertAfter: %v", what, err)
			}
			ref.insertAfter(id, frag)
		case op == 5 && !isAttr:
			frag := sc.frag()
			if _, err := s.InsertBefore(id, frag); err != nil {
				t.Fatalf("%s: InsertBefore: %v", what, err)
			}
			ref.insertBefore(id, frag)
		case op == 6 && len(elems) > 0:
			frag := sc.frag()
			if sc.next()%2 == 0 {
				_, err = s.InsertIntoFirst(elem, frag)
				ref.insertIntoFirst(elem, frag)
			} else {
				_, err = s.InsertIntoLast(elem, frag)
				ref.insertIntoLast(elem, frag)
			}
			if err != nil {
				t.Fatalf("%s: insert into %d: %v", what, elem, err)
			}
		case op == 7 && len(ids) > 20:
			if err := s.DeleteNode(id); err != nil {
				t.Fatalf("%s: DeleteNode: %v", what, err)
			}
			ref.deleteNode(id)
		case op == 8 && !isAttr:
			frag := sc.frag()
			if _, err := s.ReplaceNode(id, frag); err != nil {
				t.Fatalf("%s: ReplaceNode: %v", what, err)
			}
			ref.replaceNode(id, frag)
		case op == 9 && len(elems) > 0:
			frag := sc.frag()
			if _, err := s.ReplaceContent(elem, frag); err != nil {
				t.Fatalf("%s: ReplaceContent(%d): %v", what, elem, err)
			}
			ref.replaceContent(elem, frag)
		}
		// Whatever the step did, a handful of nodes read back right — twice,
		// so that the second read is the warm one — and now and then all of
		// them do, range by range.
		ids = ref.nodeIDs()
		for k := 0; k < 4 && len(ids) > 0; k++ {
			probe := ids[(sc.next()*256+sc.next())%len(ids)]
			checkNode(t, s, ref, probe, what)
			checkNode(t, s, ref, probe, what+" (again)")
		}
		if step%16 == 0 {
			checkRanges(t, s, ref, what)
			compareStores(t, s, ref, what)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	checkRanges(t, s, ref, "end")
	compareStores(t, s, ref, "end")
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	t.Logf("%d steps: %d ranges, %d splits, %d merges, %d evictions, %d bytes read", step, st.Ranges, st.Splits, st.Merges, st.Pool.Evictions, st.RangeBytesRead)
}

func TestCursorDifferential(t *testing.T) {
	for _, tc := range cursorConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				b := make([]byte, 6000)
				rand.New(rand.NewSource(seed)).Read(b)
				runCursorDifferential(t, tc.cfg, &opScript{b: b}, 400)
			}
		})
	}
}

// FuzzCursorDifferential lets the fuzzer write the script: which nodes, which
// operations, how long every text is and so where every chunk boundary falls.
func FuzzCursorDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 1500)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(uint8(seed), b)
	}
	f.Fuzz(func(t *testing.T, config uint8, script []byte) {
		// Short runs, many of them: the fuzzer's strength is the script, not
		// its length.
		runCursorDifferential(t, cursorConfigs[int(config)%len(cursorConfigs)].cfg, &opScript{b: script}, 24)
	})
}

// FuzzAppendNodeXML: whatever XML the fuzzer finds that parses, every node of
// it — attribute nodes, comments, processing instructions, text that needs
// escaping, empty elements — renders from the stored bytes exactly as the
// old serializer rendered its tokens, and so does xmltok.ToString.
func FuzzAppendNodeXML(f *testing.F) {
	f.Add(`<a k="v&amp;&lt;&quot;">t &amp; &lt;u&gt; "q"<b/><!-- c --><?p d?><c x=""></c></a>`, uint8(0))
	f.Add(`<orders><order id="1"><item>bolt &gt; nut</item><empty/></order><!--x--></orders>`, uint8(5))
	f.Add(`text only`, uint8(1))
	f.Add(`<a><b><c><d e="f">g</d></c></b></a><?pi?>`, uint8(3))
	f.Fuzz(func(t *testing.T, src string, granularity uint8) {
		toks, err := xmltok.ParseFragmentString(src, xmltok.ParseOptions{})
		if err != nil || len(toks) == 0 || len(toks) > 2000 {
			t.Skip()
		}
		if token.ValidateFragment(toks) != nil {
			t.Skip()
		}
		s, err := Open(Config{Mode: RangePartial, MaxRangeTokens: int(granularity), PageSize: pagestore.MinPageSize, PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Append(toks); err != nil {
			t.Fatal(err)
		}
		ref := newRefStore()
		ref.append(toks)
		for _, id := range ref.nodeIDs() {
			i := indexOf(t, ref, id)
			var sub []Token
			for _, it := range ref.items[i:ref.subtreeEnd(i)] {
				sub = append(sub, it.Tok)
			}
			want, err := refXML(sub)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // cold, then from the Partial Index
				got, err := s.AppendNodeXML(context.Background(), nil, id)
				if err != nil || string(got) != want {
					t.Fatalf("AppendNodeXML(%d) = %q, %v; want %q", id, got, err, want)
				}
			}
			if str, err := s.NodeXMLString(id); err != nil || str != want {
				t.Fatalf("NodeXMLString(%d) = %q, %v; want %q", id, str, err, want)
			}
			if sub[0].Kind != token.BeginAttribute {
				if str, err := xmltok.ToString(sub); err != nil || str != want {
					t.Fatalf("ToString of node %d = %q, %v; want %q", id, str, err, want)
				}
			}
		}
	})
}

// TestChainDirectoryLifecycle pins the lazily learned chain directory: it
// appears with the first read past a spilled range's first page, later reads
// jump by it (fewer pages viewed, fewer bytes copied than the range holds), a
// warm read copies exactly the node, and a split leaves the old directory
// and checkpoints unreachable by version.
func TestChainDirectoryLifecycle(t *testing.T) {
	s := openStore(t, Config{Mode: RangePartial, PageSize: pagestore.MinPageSize, PoolPages: 64})
	frag := []Token{token.Elem("root")}
	for i := 0; i < 400; i++ {
		frag = append(frag, token.Elem("rec"), token.Attr("n", fmt.Sprint(i)), token.EndAttr(),
			token.TextTok(strings.Repeat("x", 20+i%7)), token.EndElem())
	}
	frag = append(frag, token.EndElem())
	if _, err := s.Append(frag); err != nil {
		t.Fatal(err)
	}
	ref := newRefStore()
	ref.append(frag)
	_, ri, _ := s.rindex.Floor(1)
	pages := (rangeHeaderSize + ri.bytes + s.recs.ChunkSize() - 1) / s.recs.ChunkSize()
	if pages < 20 {
		t.Fatalf("the range spills over %d pages, the test wants dozens", pages)
	}
	if rc := s.checkpoints.get(ri.id, ri.version); rc.chain != nil {
		t.Fatal("a chain directory exists before any read")
	}
	deep := ref.elementIDs()[390] // a record near the range's end
	views := func(fn func()) (pagesViewed, bytesCopied uint64) {
		before := s.Stats()
		fn()
		after := s.Stats()
		return after.Pool.Hits + after.Pool.Misses - before.Pool.Hits - before.Pool.Misses,
			after.RangeBytesRead - before.RangeBytesRead
	}
	first, _ := views(func() { checkNode(t, s, ref, deep, "first read") })
	rc := s.checkpoints.get(ri.id, ri.version)
	if rc.chain == nil || rc.chain.Pages() != pages || len(rc.cps) == 0 {
		t.Fatalf("after a deep read the table holds %d checkpoints and chain %v, want some and %d pages", len(rc.cps), rc.chain, pages)
	}
	// Another cold node in the same neighbourhood: the replay starts at a
	// checkpoint and the read at the page the directory names.
	coldViews, coldBytes := views(func() {
		if _, err := s.ReadNode(ref.elementIDs()[388]); err != nil {
			t.Fatal(err)
		}
	})
	if coldViews > 6 || coldBytes > uint64(3*s.recs.ChunkSize()) {
		t.Errorf("a cold read behind a checkpoint viewed %d pages and copied %d bytes of a %d-byte range (the first read of the range viewed %d)",
			coldViews, coldBytes, ri.bytes, first)
	}
	// Warm: exactly the node's bytes.
	i := indexOf(t, ref, deep)
	size := 0
	for _, it := range ref.items[i:ref.subtreeEnd(i)] {
		size += len(s.dict.Append(nil, it.Tok)) // every name has its id by now
	}
	if _, warmBytes := views(func() {
		if _, err := s.ReadNode(deep); err != nil {
			t.Fatal(err)
		}
	}); warmBytes != uint64(size) {
		t.Errorf("a warm read of a %d-byte node copied %d bytes", size, warmBytes)
	}
	// A split in the middle: the version moves on, what was learned about
	// the old one is a miss, and reads on both sides of the split are right.
	oldVer := ri.version
	mid := ref.elementIDs()[200]
	note := []Token{token.Elem("note"), token.EndElem()}
	if _, err := s.InsertAfter(mid, note); err != nil {
		t.Fatal(err)
	}
	ref.insertAfter(mid, note)
	if ri.version == oldVer {
		t.Fatal("the split did not bump the range version")
	}
	if rc := s.checkpoints.get(ri.id, ri.version); rc.chain != nil || rc.cps != nil {
		t.Errorf("the table answers for the new version with what it learned about the old: %+v", rc)
	}
	for _, id := range []NodeID{deep, mid, ref.elementIDs()[388], ref.elementIDs()[3]} {
		checkNode(t, s, ref, id, "after the split")
	}
	checkRanges(t, s, ref, "after the split")
}

// TestNodeXMLAllocations: a warm read allocates only what it returns — the
// string for NodeXMLString, nothing for AppendNodeXML into a buffer that is
// large enough — in every index mode, out of spilled ranges.
func TestNodeXMLAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the cursor pool is lossy under the race detector")
	}
	for _, mode := range allModes {
		s := openStore(t, Config{Mode: mode})
		frag := []Token{token.Elem("root")}
		for i := 0; i < 3000; i++ {
			frag = append(frag, token.Elem("rec"), token.Attr("n", fmt.Sprint(i)), token.EndAttr(),
				token.TextTok("some text & more"), token.EndElem())
		}
		frag = append(frag, token.EndElem())
		if _, err := s.Append(frag); err != nil {
			t.Fatal(err)
		}
		id := NodeID(2 + 3*2500) // the 2 500th record, pages into the range
		want := `<rec n="2500">some text &amp; more</rec>`
		extra := 0.0
		if mode == FullIndex {
			extra = 1 // the paged B+tree hands out a copy of the entry
		}
		buf := make([]byte, 0, 256)
		var err error
		if buf, err = s.AppendNodeXML(context.Background(), buf[:0], id); err != nil || string(buf) != want {
			t.Fatalf("%v: %q, %v", mode, buf, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = s.AppendNodeXML(context.Background(), buf[:0], id)
		}); n > extra {
			t.Errorf("%v: AppendNodeXML into a reused buffer allocates %.1f times", mode, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if xml, _ := s.NodeXMLString(id); xml != want {
				t.Fatal(xml)
			}
		}); n > 1+extra {
			t.Errorf("%v: NodeXMLString allocates %.1f times, want the string alone", mode, n)
		}
	}
}

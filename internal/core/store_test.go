package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/token"
	"repro/internal/xmltok"
)

var allModes = []IndexMode{RangeOnly, RangePartial, FullIndex}

func openStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func figure1() []Token {
	return xmltok.MustParse(`<ticket><hour>15</hour><name>Paul</name></ticket>`)
}

func TestAppendAndReadAll(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Config{Mode: mode})
			first, err := s.Append(figure1())
			if err != nil {
				t.Fatal(err)
			}
			if first != 1 {
				t.Errorf("first id = %d, want 1", first)
			}
			items, err := s.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			// Figure 1: ids 1..5 on ticket, hour, "15", name, "Paul".
			wantIDs := []NodeID{1, 2, 3, 0, 4, 5, 0, 0}
			if len(items) != len(wantIDs) {
				t.Fatalf("got %d items", len(items))
			}
			for i, want := range wantIDs {
				if items[i].ID != want {
					t.Errorf("item %d id = %d, want %d", i, items[i].ID, want)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestXMLRoundTrip(t *testing.T) {
	src := `<orders date="2005-06-01"><order id="1"><item>widget</item></order><!--end--></orders>`
	s := openStore(t, Config{})
	if _, err := s.Append(xmltok.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	got, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Errorf("round trip:\n got %s\nwant %s", got, src)
	}
}

// TestEmptyCDATAKeepsIDs: a store loaded from XML with an empty CDATA
// section, written out and loaded again, has the same nodes under the same
// ids — the section was never a node.
func TestEmptyCDATAKeepsIDs(t *testing.T) {
	load := func(src string) (*Store, []Item) {
		toks, err := xmltok.ParseString(src, xmltok.ParseOptions{}) // keeps whitespace, so empty text too
		if err != nil {
			t.Fatal(err)
		}
		s := openStore(t, Config{})
		if _, err := s.Append(toks); err != nil {
			t.Fatal(err)
		}
		items, err := s.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return s, items
	}
	s, want := load(`<a><![CDATA[]]><b>x<![CDATA[]]></b><![CDATA[]]><c/></a>`)
	var out strings.Builder
	if err := s.WriteXML(&out); err != nil {
		t.Fatal(err)
	}
	s2, got := load(out.String())
	if n, n2 := s.Stats().Nodes, s2.Stats().Nodes; n != 4 || n2 != n {
		t.Fatalf("nodes %d, after reload %d; want 4 both times", n, n2)
	}
	if len(got) != len(want) {
		t.Fatalf("reload has %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d after reload: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReadNode(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Config{Mode: mode})
			if _, err := s.Append(figure1()); err != nil {
				t.Fatal(err)
			}
			// Node 2 is <hour>15</hour>.
			xml, err := s.NodeXMLString(2)
			if err != nil {
				t.Fatal(err)
			}
			if xml != `<hour>15</hour>` {
				t.Errorf("node 2 = %q", xml)
			}
			// Node 3 is the text "15".
			items, err := s.ReadNode(3)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != 1 || items[0].Tok.Value != "15" {
				t.Errorf("node 3 = %v", items)
			}
			// Node 5 is the text "Paul".
			items, err = s.ReadNode(5)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != 1 || items[0].Tok.Value != "Paul" {
				t.Errorf("node 5 = %v", items)
			}
			// Whole document via node 1.
			xml, err = s.NodeXMLString(1)
			if err != nil {
				t.Fatal(err)
			}
			if xml != `<ticket><hour>15</hour><name>Paul</name></ticket>` {
				t.Errorf("node 1 = %q", xml)
			}
			// Subtree ids are regenerated correctly.
			items, err = s.ReadNode(1)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := []NodeID{1, 2, 3, 0, 4, 5, 0, 0}
			for i, want := range wantIDs {
				if items[i].ID != want {
					t.Errorf("subtree item %d id = %d, want %d", i, items[i].ID, want)
				}
			}
			// Missing node.
			if _, err := s.ReadNode(99); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("ReadNode(99) err = %v", err)
			}
			if s.Exists(99) {
				t.Error("Exists(99)")
			}
			if !s.Exists(4) {
				t.Error("!Exists(4)")
			}
		})
	}
}

// TestPaperSection45 walks the exact scenario of Section 4.5: two sibling
// trees with 100 nodes total, then insertIntoLast(60, <40 nodes>). The store
// must end with the three-interval structure of Table 3 plus the new range.
func TestPaperSection45(t *testing.T) {
	s := openStore(t, Config{Mode: RangeOnly})

	// Build two sibling nodes with 100 nodes total (50 each): a root element
	// with 49 child elements.
	mkTree := func(name string) []Token {
		toks := []Token{token.Elem(name)}
		for i := 0; i < 49; i++ {
			toks = append(toks, token.Elem("c"), token.EndElem())
		}
		return append(toks, token.EndElem())
	}
	if _, err := s.Append(mkTree("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(mkTree("second")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Nodes != 100 {
		t.Fatalf("nodes = %d, want 100", st.Nodes)
	}

	// 40 new nodes inserted as last child of node 60 (a <c/> inside the
	// second tree).
	frag := []Token{token.Elem("new")}
	for i := 0; i < 39; i++ {
		frag = append(frag, token.Elem("n"), token.EndElem())
	}
	frag = append(frag, token.EndElem())
	firstNew, err := s.InsertIntoLast(60, frag)
	if err != nil {
		t.Fatal(err)
	}
	if firstNew != 101 {
		t.Errorf("new ids start at %d, want 101", firstNew)
	}
	st = s.Stats()
	if st.Nodes != 140 {
		t.Errorf("nodes = %d, want 140", st.Nodes)
	}
	if st.Splits != 1 {
		t.Errorf("splits = %d, want 1", st.Splits)
	}
	// Table 3 structure: intervals [1..50] (untouched first tree is its own
	// range), and the second tree's range split around the insert, with the
	// new [101..140] range between the pieces.
	var intervals [][2]NodeID
	s.rindex.AscendAll(func(k uint64, ri *rangeInfo) bool {
		intervals = append(intervals, [2]NodeID{ri.start, ri.end()})
		return true
	})
	want := [][2]NodeID{{1, 50}, {51, 60}, {61, 100}, {101, 140}}
	if len(intervals) != len(want) {
		t.Fatalf("intervals = %v", intervals)
	}
	for i := range want {
		if intervals[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", intervals, want)
		}
	}
	// The inserted subtree reads back under node 60.
	xml, err := s.NodeXMLString(60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "<new>") {
		t.Errorf("node 60 does not contain the insert: %s", xml)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertOperations(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Config{Mode: mode})
			ref := newRefStore()
			doc := xmltok.MustParse(`<root><a>one</a><b/></root>`)
			if _, err := s.Append(doc); err != nil {
				t.Fatal(err)
			}
			ref.append(doc)
			compareStores(t, s, ref, "after load")

			// root=1, a=2, "one"=3, b=4
			frag := xmltok.MustParseFragment(`<x>new</x>`)
			if _, err := s.InsertBefore(2, frag); err != nil {
				t.Fatal(err)
			}
			ref.insertBefore(2, frag)
			compareStores(t, s, ref, "insertBefore")

			frag2 := xmltok.MustParseFragment(`<y/>`)
			if _, err := s.InsertAfter(2, frag2); err != nil {
				t.Fatal(err)
			}
			ref.insertAfter(2, frag2)
			compareStores(t, s, ref, "insertAfter")

			frag3 := xmltok.MustParseFragment(`first-text`)
			if _, err := s.InsertIntoFirst(4, frag3); err != nil {
				t.Fatal(err)
			}
			ref.insertIntoFirst(4, frag3)
			compareStores(t, s, ref, "insertIntoFirst")

			frag4 := xmltok.MustParseFragment(`<tail/>`)
			if _, err := s.InsertIntoLast(1, frag4); err != nil {
				t.Fatal(err)
			}
			ref.insertIntoLast(1, frag4)
			compareStores(t, s, ref, "insertIntoLast")

			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInsertIntoFirstSkipsAttributes(t *testing.T) {
	s := openStore(t, Config{})
	ref := newRefStore()
	doc := xmltok.MustParse(`<root a="1" b="2"><child/></root>`)
	if _, err := s.Append(doc); err != nil {
		t.Fatal(err)
	}
	ref.append(doc)
	frag := xmltok.MustParseFragment(`inserted`)
	if _, err := s.InsertIntoFirst(1, frag); err != nil {
		t.Fatal(err)
	}
	ref.insertIntoFirst(1, frag)
	compareStores(t, s, ref, "intoFirst with attrs")
	xml, _ := s.XMLString()
	want := `<root a="1" b="2">inserted<child/></root>`
	if xml != want {
		t.Errorf("got %s, want %s", xml, want)
	}
}

func TestInsertErrors(t *testing.T) {
	s := openStore(t, Config{})
	doc := xmltok.MustParse(`<root a="1">text</root>`)
	if _, err := s.Append(doc); err != nil {
		t.Fatal(err)
	}
	// root=1, attr a=2, text=3
	frag := xmltok.MustParseFragment(`<x/>`)
	if _, err := s.InsertIntoFirst(3, frag); !errors.Is(err, ErrNotElement) {
		t.Errorf("into text: %v", err)
	}
	if _, err := s.InsertIntoLast(2, frag); !errors.Is(err, ErrIntoAttribute) {
		t.Errorf("into attribute: %v", err)
	}
	if _, err := s.InsertBefore(2, frag); !errors.Is(err, ErrAttrContext) {
		t.Errorf("before attribute: %v", err)
	}
	if _, err := s.InsertAfter(2, frag); !errors.Is(err, ErrAttrContext) {
		t.Errorf("after attribute: %v", err)
	}
	if _, err := s.InsertBefore(77, frag); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("missing node: %v", err)
	}
	// Ill-formed fragments are rejected outright.
	if _, err := s.Append([]Token{token.Elem("open")}); !errors.Is(err, ErrBadFragment) {
		t.Errorf("bad fragment: %v", err)
	}
	if _, err := s.InsertBefore(1, nil); !errors.Is(err, ErrBadFragment) {
		t.Errorf("nil fragment: %v", err)
	}
}

func TestDeleteNode(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Config{Mode: mode})
			ref := newRefStore()
			doc := xmltok.MustParse(`<root><a>one</a><b><c/>mid</b><d/></root>`)
			if _, err := s.Append(doc); err != nil {
				t.Fatal(err)
			}
			ref.append(doc)
			// root=1 a=2 "one"=3 b=4 c=5 "mid"=6 d=7
			if err := s.DeleteNode(4); err != nil { // subtree <b>...</b>
				t.Fatal(err)
			}
			ref.deleteNode(4)
			compareStores(t, s, ref, "delete subtree")
			// Deleted descendants are gone too.
			if s.Exists(5) || s.Exists(6) {
				t.Error("descendants survived delete")
			}
			if err := s.DeleteNode(4); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("double delete: %v", err)
			}
			// Delete a leaf.
			if err := s.DeleteNode(3); err != nil {
				t.Fatal(err)
			}
			ref.deleteNode(3)
			compareStores(t, s, ref, "delete leaf")
			// Delete the root: store becomes empty.
			if err := s.DeleteNode(1); err != nil {
				t.Fatal(err)
			}
			ref.deleteNode(1)
			compareStores(t, s, ref, "delete root")
			st := s.Stats()
			if st.Nodes != 0 || st.Tokens != 0 || st.Ranges != 0 {
				t.Errorf("post-delete stats: %+v", st)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
			// The store remains usable.
			if _, err := s.Append(figure1()); err != nil {
				t.Fatal(err)
			}
			ref.nextID = 8 // the real store consumed ids 1..7 already
			ref.append(figure1())
			compareStores(t, s, ref, "append after empty")
		})
	}
}

func TestDeleteAttribute(t *testing.T) {
	s := openStore(t, Config{})
	ref := newRefStore()
	doc := xmltok.MustParse(`<root a="1" b="2">t</root>`)
	s.Append(doc)
	ref.append(doc)
	// attr a = 2
	if err := s.DeleteNode(2); err != nil {
		t.Fatal(err)
	}
	ref.deleteNode(2)
	compareStores(t, s, ref, "delete attribute")
	xml, _ := s.XMLString()
	if xml != `<root b="2">t</root>` {
		t.Errorf("got %s", xml)
	}
}

func TestReplaceNode(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Config{Mode: mode})
			ref := newRefStore()
			doc := xmltok.MustParse(`<root><a/><b>x</b><c/></root>`)
			s.Append(doc)
			ref.append(doc)
			// a=2, b=3, x=4, c=5
			frag := xmltok.MustParseFragment(`<replacement attr="v">body</replacement>`)
			newID, err := s.ReplaceNode(3, frag)
			if err != nil {
				t.Fatal(err)
			}
			ref.replaceNode(3, frag)
			compareStores(t, s, ref, "replaceNode")
			if newID == InvalidNode {
				t.Error("no new id returned")
			}
			if s.Exists(3) || s.Exists(4) {
				t.Error("replaced nodes survived")
			}
			// Replace the root entirely.
			frag2 := xmltok.MustParseFragment(`<newroot/>`)
			if _, err := s.ReplaceNode(1, frag2); err != nil {
				t.Fatal(err)
			}
			ref.replaceNode(1, frag2)
			compareStores(t, s, ref, "replace root")
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestReplaceContent(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Config{Mode: mode})
			ref := newRefStore()
			doc := xmltok.MustParse(`<root k="v"><old1/><old2>x</old2></root>`)
			s.Append(doc)
			ref.append(doc)
			frag := xmltok.MustParseFragment(`fresh<content/>`)
			if _, err := s.ReplaceContent(1, frag); err != nil {
				t.Fatal(err)
			}
			ref.replaceContent(1, frag)
			compareStores(t, s, ref, "replaceContent")
			xml, _ := s.XMLString()
			want := `<root k="v">fresh<content/></root>`
			if xml != want {
				t.Errorf("got %s, want %s", xml, want)
			}
			// Empty the element.
			if _, err := s.ReplaceContent(1, nil); err != nil {
				t.Fatal(err)
			}
			ref.replaceContent(1, nil)
			compareStores(t, s, ref, "empty content")
			xml, _ = s.XMLString()
			if xml != `<root k="v"/>` {
				t.Errorf("got %s", xml)
			}
			// Refill an empty element.
			frag2 := xmltok.MustParseFragment(`<again/>`)
			if _, err := s.ReplaceContent(1, frag2); err != nil {
				t.Fatal(err)
			}
			ref.replaceContent(1, frag2)
			compareStores(t, s, ref, "refill content")
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGranularLoad(t *testing.T) {
	// MaxRangeTokens chops bulk loads into many ranges; content unchanged.
	var sb strings.Builder
	sb.WriteString("<all>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<rec><f>v</f></rec>")
	}
	sb.WriteString("</all>")
	doc := xmltok.MustParse(sb.String())

	coarse := openStore(t, Config{})
	granular := openStore(t, Config{MaxRangeTokens: 16})
	coarse.Append(doc)
	granular.Append(doc)

	cs, gs := coarse.Stats(), granular.Stats()
	if cs.Ranges != 1 {
		t.Errorf("coarse ranges = %d, want 1", cs.Ranges)
	}
	if gs.Ranges < 20 {
		t.Errorf("granular ranges = %d, want many", gs.Ranges)
	}
	cXML, _ := coarse.XMLString()
	gXML, _ := granular.XMLString()
	if cXML != gXML {
		t.Error("granularity changed content")
	}
	// Node ids identical under both granularities.
	ci, _ := coarse.ReadAll()
	gi, _ := granular.ReadAll()
	for i := range ci {
		if ci[i] != gi[i] {
			t.Fatalf("item %d differs: %v vs %v", i, ci[i], gi[i])
		}
	}
	if err := granular.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Random reads work against granular ranges.
	for id := NodeID(1); id <= NodeID(gs.Nodes); id += 17 {
		if !granular.Exists(id) {
			t.Errorf("node %d missing in granular store", id)
		}
	}
}

func TestClosedStore(t *testing.T) {
	s, _ := Open(Config{})
	s.Append(figure1())
	s.Close()
	if _, err := s.Append(figure1()); !errors.Is(err, ErrClosed) {
		t.Errorf("append: %v", err)
	}
	if _, err := s.ReadAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("read: %v", err)
	}
	if err := s.DeleteNode(1); !errors.Is(err, ErrClosed) {
		t.Errorf("delete: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyStore(t *testing.T) {
	s := openStore(t, Config{})
	items, err := s.ReadAll()
	if err != nil || len(items) != 0 {
		t.Errorf("empty read: %v %v", items, err)
	}
	if _, ok, _ := s.FirstNodeID(); ok {
		t.Error("FirstNodeID on empty store")
	}
	if err := s.DeleteNode(1); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("delete on empty: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPaperTable4 continues the Section 4.5 example under the partial
// index: after insertIntoLast(60, ...), the lookup positions are memorized
// (the paper's Table 4 — begin and end locations of node 60), so repeating
// the operation performs no range scan at all.
func TestPaperTable4(t *testing.T) {
	s := openStore(t, Config{Mode: RangePartial, PartialCapacity: 64})
	mkTree := func(name string) []Token {
		toks := []Token{token.Elem(name)}
		for i := 0; i < 49; i++ {
			toks = append(toks, token.Elem("c"), token.EndElem())
		}
		return append(toks, token.EndElem())
	}
	s.Append(mkTree("first"))
	s.Append(mkTree("second"))

	frag := []Token{token.Elem("new"), token.EndElem()}
	if _, err := s.InsertIntoLast(60, frag); err != nil {
		t.Fatal(err)
	}
	// Table 4: the partial index now knows node 60's positions. The insert
	// itself split the range, so the entry re-learns on the next touch;
	// from then on the operation is scan-free.
	if _, err := s.InsertIntoLast(60, frag); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PartialEntries == 0 {
		t.Fatal("partial index empty after lookups")
	}
	scanned := st.TokensScanned
	for i := 0; i < 5; i++ {
		if _, err := s.InsertIntoLast(60, frag); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if perOp := (st.TokensScanned - scanned) / 5; perOp > 2 {
		t.Errorf("warm insertIntoLast(60) scans %d tokens/op; Table 4 memoization broken", perOp)
	}
	if st.PartialHits == 0 {
		t.Error("no partial hits")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

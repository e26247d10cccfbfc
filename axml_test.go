package axml_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	axml "repro"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	s, err := axml.Open(axml.Config{Mode: axml.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	root, err := axml.LoadXMLString(s, `<ticket><hour>15</hour><name>Paul</name></ticket>`)
	if err != nil {
		t.Fatal(err)
	}
	if root != 1 {
		t.Errorf("root id = %d", root)
	}
	xml, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if xml != `<ticket><hour>15</hour><name>Paul</name></ticket>` {
		t.Errorf("round trip: %s", xml)
	}
}

func TestPublicQueryAndUpdate(t *testing.T) {
	s, _ := axml.Open(axml.Config{})
	defer s.Close()
	root, err := axml.LoadXMLString(s, `<orders><order id="1"/><order id="2"/></orders>`)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := axml.Query(s, `//order[@id="2"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	frag, err := axml.ParseFragment(`<item>bolt</item>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertIntoLast(ids[0], frag); err != nil {
		t.Fatal(err)
	}
	v, err := axml.QueryValue(s, `count(//item)`)
	if err != nil {
		t.Fatal(err)
	}
	if v != "1" {
		t.Errorf("count = %s", v)
	}
	if err := s.DeleteNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	v, _ = axml.QueryValue(s, `count(//order)`)
	if v != "1" {
		t.Errorf("after delete: %s", v)
	}
	_ = root
}

func TestPublicErrors(t *testing.T) {
	s, _ := axml.Open(axml.Config{})
	defer s.Close()
	if _, err := axml.LoadXMLString(s, `<broken`); err == nil {
		t.Error("bad XML should fail")
	}
	if _, err := axml.ParseFragment(`<a>`); err == nil {
		t.Error("bad fragment should fail")
	}
	if _, err := axml.Query(s, `///`); err == nil {
		t.Error("bad XPath should fail")
	}
	axml.LoadXMLString(s, `<a/>`)
	frag, _ := axml.ParseFragment(`<b/>`)
	if _, err := s.InsertBefore(99, frag); !errors.Is(err, axml.ErrNoSuchNode) {
		t.Errorf("missing target: %v", err)
	}
}

func TestPublicFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "api.db")
	s, err := axml.OpenFile(path, axml.Config{Mode: axml.RangeOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := axml.LoadXMLString(s, `<persisted><data/></persisted>`); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := axml.ReopenFile(path, axml.Config{Mode: axml.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	xml, err := s2.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if xml != `<persisted><data/></persisted>` {
		t.Errorf("persisted content: %s", xml)
	}
	// Mode changed across reopen (indexes are derived state).
	if s2.Mode() != axml.RangePartial {
		t.Errorf("mode = %v", s2.Mode())
	}
}

func TestPublicModes(t *testing.T) {
	for _, mode := range []axml.IndexMode{axml.RangeOnly, axml.RangePartial, axml.FullIndex} {
		s, err := axml.Open(axml.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := axml.LoadXMLString(s, `<m><x>1</x></m>`); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ids, err := axml.Query(s, "//x")
		if err != nil || len(ids) != 1 {
			t.Fatalf("%v: query %v %v", mode, ids, err)
		}
		xml, _ := s.NodeXMLString(ids[0])
		if xml != `<x>1</x>` {
			t.Errorf("%v: %s", mode, xml)
		}
		s.Close()
	}
}

func TestPublicStats(t *testing.T) {
	s, _ := axml.Open(axml.Config{Mode: axml.RangePartial})
	defer s.Close()
	axml.LoadXMLString(s, `<a><b/><c/></a>`)
	st := s.Stats()
	if st.Nodes != 3 || st.Ranges != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.WALCommits != 0 || st.WALSyncs != 0 {
		t.Errorf("an unjournaled store reports WAL activity: %+v", st)
	}

	// A journaled store counts its commit path: this one is a few pages, so
	// each flush is one commit, one log fsync and one two-fsync checkpoint.
	// The checkpoints run beside the commits; Close waits for the last one.
	js, err := axml.OpenFileWAL(filepath.Join(t.TempDir(), "j.db"), axml.Config{Mode: axml.RangePartial}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	axml.LoadXMLString(js, `<a><b/><c/></a>`)
	for i := 0; i < 2; i++ {
		frag, _ := axml.ParseFragment(`<d/>`)
		if _, err := js.InsertIntoLast(1, frag); err != nil {
			t.Fatal(err)
		}
		if err := js.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	st = js.Stats()
	if st.WALCommits != 2 || st.WALSyncs != 6 || st.WALCheckpoints != 2 || st.WALLogBytes != 0 {
		t.Errorf("journaled stats: commits %d syncs %d checkpoints %d log %d, want 2/6/2/0",
			st.WALCommits, st.WALSyncs, st.WALCheckpoints, st.WALLogBytes)
	}
}

func TestPublicXQuery(t *testing.T) {
	s, _ := axml.Open(axml.Config{})
	defer s.Close()
	axml.LoadXMLString(s, `<inv><it p="3">a</it><it p="1">b</it><it p="2">c</it></inv>`)
	out, err := axml.XQueryString(s, `
	  for $i in //it
	  order by $i/@p descending
	  return <o>{$i/text()}</o>`)
	if err != nil {
		t.Fatal(err)
	}
	if out != `<o>a</o><o>c</o><o>b</o>` {
		t.Errorf("xquery: %s", out)
	}
	// Token form round trips into a store.
	toks, err := axml.XQuery(s, `for $i in //it return $i`)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := axml.Open(axml.Config{})
	defer s2.Close()
	if _, err := s2.Append(toks); err != nil {
		t.Fatalf("result not insertable: %v", err)
	}
	if _, err := axml.XQueryString(s, `for $x`); err == nil {
		t.Error("bad query should fail")
	}
}

func TestPublicNavigation(t *testing.T) {
	s, _ := axml.Open(axml.Config{Mode: axml.RangePartial})
	defer s.Close()
	root, _ := axml.LoadXMLString(s, `<r><a/><b><c/></b></r>`)
	kids, err := s.Children(root)
	if err != nil || len(kids) != 2 {
		t.Fatalf("children: %v %v", kids, err)
	}
	p, ok, err := s.Parent(kids[1])
	if err != nil || !ok || p != root {
		t.Errorf("parent: %d %v %v", p, ok, err)
	}
	cmp, err := s.CompareDocOrder(kids[0], kids[1])
	if err != nil || cmp != -1 {
		t.Errorf("doc order: %d %v", cmp, err)
	}
}

func TestPublicDocComment(t *testing.T) {
	// The doc-comment quick start must actually work.
	st, _ := axml.Open(axml.Config{Mode: axml.RangePartial})
	defer st.Close()
	root, _ := axml.LoadXMLString(st, `<orders/>`)
	frag, _ := axml.ParseFragment(`<order id="1"/>`)
	if _, err := st.InsertIntoLast(root, frag); err != nil {
		t.Fatal(err)
	}
	ids, err := axml.Query(st, `//order[@id="1"]`)
	if err != nil || len(ids) != 1 {
		t.Fatal(ids, err)
	}
	xml, err := st.NodeXMLString(ids[0])
	if err != nil || !strings.Contains(xml, `id="1"`) {
		t.Fatal(xml, err)
	}
}

func TestPublicLoadXMLStream(t *testing.T) {
	s, _ := axml.Open(axml.Config{})
	defer s.Close()
	src := "<doc>\n  <a>1</a>\n  <b>2</b>\n</doc>"
	root, err := axml.LoadXMLStream(s, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace-only text stripped, like LoadXML.
	xml, _ := s.XMLString()
	if xml != `<doc><a>1</a><b>2</b></doc>` {
		t.Errorf("streamed load: %s", xml)
	}
	if merged, err := s.Compact(0); err != nil || merged != 0 {
		t.Errorf("compact on single range: %d, %v", merged, err)
	}
	_ = root
	if _, err := axml.LoadXMLStream(s, strings.NewReader(`<broken`)); err == nil {
		t.Error("bad stream should fail")
	}
}

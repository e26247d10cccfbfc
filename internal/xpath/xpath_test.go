package xpath

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xmltok"
)

const catalogXML = `<catalog>
  <book id="b1" year="2003">
    <title>TCP/IP Illustrated</title>
    <author>Stevens</author>
    <price>65.95</price>
  </book>
  <book id="b2" year="1998">
    <title>Advanced Programming</title>
    <author>Stevens</author>
    <price>65.95</price>
  </book>
  <book id="b3" year="2000">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Buneman</author>
    <price>39.95</price>
  </book>
  <magazine month="1">
    <title>National Geographic</title>
  </magazine>
</catalog>`

func testDoc(t *testing.T) *Doc {
	t.Helper()
	toks, err := xmltok.ParseString(catalogXML, xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]core.Item, len(toks))
	id := core.NodeID(1)
	for i, tok := range toks {
		items[i] = core.Item{Tok: tok}
		if tok.StartsNode() {
			items[i].ID = id
			id++
		}
	}
	d, err := BuildDoc(items)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func names(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		if n.Kind == TextNode {
			out[i] = "text:" + n.Value
		} else {
			out[i] = n.Name
		}
	}
	return out
}

func mustQuery(t *testing.T, d *Doc, q string) []*Node {
	t.Helper()
	ns, err := Query(d, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return ns
}

func TestBasicPaths(t *testing.T) {
	d := testDoc(t)
	cases := []struct {
		q    string
		want int
	}{
		{"/catalog", 1},
		{"/catalog/book", 3},
		{"/catalog/*", 4},
		{"//book", 3},
		{"//title", 4},
		{"//author", 4},
		{"/catalog/book/title", 3},
		{"//book/author", 4},
		{"//magazine", 1},
		{"/nonexistent", 0},
		{"//book/missing", 0},
		{"//*", 16}, // catalog + 3 book + 4 title + 4 author + 3 price + magazine
		{"/", 1},    // the virtual root
	}
	for _, c := range cases {
		ns := mustQuery(t, d, c.q)
		if len(ns) != c.want {
			t.Errorf("%s: got %d nodes (%v), want %d", c.q, len(ns), names(ns), c.want)
		}
	}
}

func TestAttributes(t *testing.T) {
	d := testDoc(t)
	ns := mustQuery(t, d, "//book/@id")
	if len(ns) != 3 {
		t.Fatalf("@id count = %d", len(ns))
	}
	if ns[0].Value != "b1" || ns[2].Value != "b3" {
		t.Errorf("attr values: %v %v", ns[0].Value, ns[2].Value)
	}
	ns = mustQuery(t, d, "//book/@*")
	if len(ns) != 6 {
		t.Errorf("@* count = %d", len(ns))
	}
	ns = mustQuery(t, d, `//book[@id="b2"]/title`)
	if len(ns) != 1 || ns[0].StringValue() != "Advanced Programming" {
		t.Errorf("predicate on attr: %v", names(ns))
	}
}

func TestPredicates(t *testing.T) {
	d := testDoc(t)
	cases := []struct {
		q    string
		want []string
	}{
		{`//book[1]/title`, []string{"TCP/IP Illustrated"}},
		{`//book[last()]/title`, []string{"Data on the Web"}},
		{`//book[position()>1]/@id`, []string{"b2", "b3"}},
		{`//book[price=65.95]/@id`, []string{"b1", "b2"}},
		{`//book[price<50]/@id`, []string{"b3"}},
		{`//book[author="Abiteboul"]/@id`, []string{"b3"}},
		{`//book[count(author)=2]/@id`, []string{"b3"}},
		{`//book[@year>1999 and price>50]/@id`, []string{"b1"}},
		{`//book[@year<1999 or @year>2002]/@id`, []string{"b1", "b2"}},
		{`//book[not(@year=1998)]/@id`, []string{"b1", "b3"}},
		{`//book[contains(title, "Web")]/@id`, []string{"b3"}},
		{`//book[starts-with(title, "TCP")]/@id`, []string{"b1"}},
		{`//book[author]/@id`, []string{"b1", "b2", "b3"}},
		{`//book[@id != "b1"][1]/@id`, []string{"b2"}},
	}
	for _, c := range cases {
		ns := mustQuery(t, d, c.q)
		var got []string
		for _, n := range ns {
			if n.Kind == Attribute {
				got = append(got, n.Value)
			} else {
				got = append(got, n.StringValue())
			}
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestAxes(t *testing.T) {
	d := testDoc(t)
	cases := []struct {
		q    string
		want int
	}{
		{"//price/parent::book", 3},
		{"//price/..", 3},
		{"//title/ancestor::catalog", 1},
		{"//title/ancestor::*", 5}, // catalog + 3 books + magazine
		{"//author/ancestor-or-self::author", 4},
		{"//book[1]/following-sibling::book", 2},
		{"//book[last()]/preceding-sibling::book", 2},
		{"//book[1]/following-sibling::*", 3},
		{"/catalog/descendant::title", 4},
		{"/catalog/child::book", 3},
		{"//title/self::title", 4},
		{"//book/attribute::id", 3},
		{"//magazine/preceding-sibling::book[1]", 1}, // nearest sibling
	}
	for _, c := range cases {
		ns := mustQuery(t, d, c.q)
		if len(ns) != c.want {
			t.Errorf("%s: got %d (%v), want %d", c.q, len(ns), names(ns), c.want)
		}
	}
	// Nearest preceding sibling is the reverse-axis position 1.
	ns := mustQuery(t, d, "//magazine/preceding-sibling::book[1]/@id")
	if len(ns) != 1 || ns[0].Value != "b3" {
		t.Errorf("reverse axis position: %v", names(ns))
	}
}

func TestTextAndNodeTests(t *testing.T) {
	d := testDoc(t)
	ns := mustQuery(t, d, "//title/text()")
	if len(ns) != 4 {
		t.Fatalf("text() count = %d", len(ns))
	}
	if ns[0].Value != "TCP/IP Illustrated" {
		t.Errorf("first title text: %q", ns[0].Value)
	}
	ns = mustQuery(t, d, "/catalog/book[1]/node()")
	if len(ns) != 3 { // title, author, price
		t.Errorf("node() count = %d (%v)", len(ns), names(ns))
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	d := testDoc(t)
	// Ancestor paths of many nodes overlap; results must be deduplicated
	// and in document order.
	ns := mustQuery(t, d, "//*/ancestor-or-self::*")
	seen := map[*Node]bool{}
	prev := -1
	for _, n := range ns {
		if seen[n] {
			t.Fatal("duplicate node in result")
		}
		seen[n] = true
		if n.order <= prev {
			t.Fatal("result out of document order")
		}
		prev = n.order
	}
}

func TestEvalValue(t *testing.T) {
	d := testDoc(t)
	cases := []struct{ q, want string }{
		{`count(//book)`, "3"},
		{`count(//author)`, "4"},
		{`string(//book[1]/title)`, "TCP/IP Illustrated"},
		{`//book[1]/@year`, "2003"},
		{`count(//book[price>50])`, "2"},
		{`normalize-space("  a   b  ")`, "a b"},
		{`string-length("abcd")`, "4"},
		{`1 + 2`, "3"},
		{`5 - 2 - 1`, "2"},
		{`-(3)`, "-3"},
		{`name(//*[@id="b2"])`, "book"},
		{`true()`, "true"},
		{`false()`, "false"},
		{`number("12") + 1`, "13"},
	}
	for _, c := range cases {
		comp, err := Parse(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		got, err := comp.EvalValue(d)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//book[",
		"//book[]",
		"//book)",
		"/catalog/",
		"!book",
		"'unterminated",
		"foo::bar",
		"//book[unknownfunc()]",
		"count(//book",
		"//book[text(1)]",
		"1 = ",
		"@",
		"..3",
	}
	for _, q := range bad {
		c, err := Parse(q)
		if err != nil {
			continue // parse-time rejection
		}
		d := testDoc(t)
		if _, err := c.Eval(d); err == nil {
			if _, err := c.EvalValue(d); err == nil {
				t.Errorf("%q: expected an error somewhere", q)
			}
		}
	}
	// SyntaxError carries position info.
	_, err := Parse("//book[")
	if se, ok := err.(*SyntaxError); !ok || !strings.Contains(se.Error(), "offset") {
		t.Errorf("error type: %T %v", err, err)
	}
	// Every parse failure, lexer or parser, wrapped or not, matches ErrSyntax.
	for _, q := range []string{"//book[", "!book", "'unterminated"} {
		if _, err := Parse(q); !errors.Is(fmt.Errorf("query: %w", err), ErrSyntax) {
			t.Errorf("%q: %v does not match ErrSyntax", q, err)
		}
	}
}

func TestEvalOnStore(t *testing.T) {
	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	toks, err := xmltok.ParseString(catalogXML, xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(toks); err != nil {
		t.Fatal(err)
	}
	ids, err := QueryIDs(s, `//book[@id="b2"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	// The returned id is usable as an XUpdate target.
	if _, err := s.InsertIntoLast(ids[0], xmltok.MustParseFragment(`<note>classic</note>`)); err != nil {
		t.Fatal(err)
	}
	xml, _ := s.NodeXMLString(ids[0])
	if !strings.Contains(xml, "<note>classic</note>") {
		t.Errorf("update via query id failed: %s", xml)
	}
	// Query result reflects the update.
	ids2, err := QueryIDs(s, `//book[note="classic"]/@id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids2) != 1 {
		t.Errorf("post-update query: %v", ids2)
	}
}

func TestCompiledReuse(t *testing.T) {
	d := testDoc(t)
	c, err := Parse("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "//book/title" {
		t.Errorf("String() = %q", c.String())
	}
	for i := 0; i < 3; i++ {
		ns, err := c.Eval(d)
		if err != nil || len(ns) != 3 {
			t.Fatalf("reuse %d: %d nodes, %v", i, len(ns), err)
		}
	}
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []NodeKind{Root, Element, Attribute, TextNode, Comment, PI, NodeKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}

func TestCommentAndPINodes(t *testing.T) {
	toks := xmltok.MustParse(`<r><!--note--><?target data?><a/></r>`)
	items := make([]core.Item, len(toks))
	id := core.NodeID(1)
	for i, tok := range toks {
		items[i] = core.Item{Tok: tok}
		if tok.StartsNode() {
			items[i].ID = id
			id++
		}
	}
	d, _ := BuildDoc(items)
	ns := mustQuery(t, d, "//comment()")
	if len(ns) != 1 || ns[0].Value != "note" {
		t.Errorf("comment(): %v", names(ns))
	}
	ns = mustQuery(t, d, "/r/node()")
	if len(ns) != 3 {
		t.Errorf("node() over mixed kinds: %d", len(ns))
	}
	ns = mustQuery(t, d, "//processing-instruction()")
	if len(ns) != 1 || ns[0].Name != "target" {
		t.Errorf("pi(): %v", names(ns))
	}
}

func BenchmarkQueryDescendant(b *testing.B) {
	toks, _ := xmltok.ParseString(catalogXML, xmltok.ParseOptions{StripWhitespace: true})
	items := make([]core.Item, len(toks))
	id := core.NodeID(1)
	for i, tok := range toks {
		items[i] = core.Item{Tok: tok}
		if tok.StartsNode() {
			items[i].ID = id
			id++
		}
	}
	d, _ := BuildDoc(items)
	c, _ := Parse(`//book[price>50]/title`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(d); err != nil {
			b.Fatal(err)
		}
	}
}

package xquery

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xmltok"
	"repro/internal/xpath"
)

const books = `<catalog>
  <book id="b1" year="2003"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
  <book id="b2" year="1998"><title>Advanced Programming</title><author>Stevens</author><price>65.95</price></book>
  <book id="b3" year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price></book>
</catalog>`

func bookStore(t *testing.T) *core.Store {
	t.Helper()
	s, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	toks, err := xmltok.ParseString(books, xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(toks); err != nil {
		t.Fatal(err)
	}
	return s
}

func evalOK(t *testing.T, s *core.Store, q string) string {
	t.Helper()
	out, err := EvalString(s, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}

func TestBareExpression(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `//book[@id="b2"]/title`)
	if got != `<title>Advanced Programming</title>` {
		t.Errorf("got %s", got)
	}
	got = evalOK(t, s, `count(//book)`)
	if got != "3" {
		t.Errorf("count: %s", got)
	}
}

func TestSimpleFor(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `for $b in //book return $b/title`)
	want := `<title>TCP/IP Illustrated</title><title>Advanced Programming</title><title>Data on the Web</title>`
	if got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

func TestForWhereReturnConstructor(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book
	  where $b/price < 50
	  return <cheap id="{$b/@id}">{$b/title}</cheap>`)
	want := `<cheap id="b3"><title>Data on the Web</title></cheap>`
	if got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

func TestLetClause(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book
	  let $t := $b/title
	  where $b/@year > 1999
	  return <r>{$t/text()}</r>`)
	want := `<r>TCP/IP Illustrated</r><r>Data on the Web</r>`
	if got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

func TestOrderBy(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book
	  order by $b/title
	  return <t>{$b/@id}</t>`)
	// alphabetical: Advanced(b2), Data(b3), TCP(b1)
	want := `<t id="b2"/><t id="b3"/><t id="b1"/>`
	if got != want {
		t.Errorf("alpha:\n got %s\nwant %s", got, want)
	}
	got = evalOK(t, s, `
	  for $b in //book
	  order by $b/price descending
	  return <p>{$b/price/text()}</p>`)
	want = `<p>65.95</p><p>65.95</p><p>39.95</p>`
	if got != want {
		t.Errorf("numeric desc:\n got %s\nwant %s", got, want)
	}
	// ascending keyword accepted.
	got = evalOK(t, s, `for $b in //book order by $b/@year ascending return <y>{$b/@year}</y>`)
	want = `<y year="1998"/><y year="2000"/><y year="2003"/>`
	if got != want {
		t.Errorf("asc:\n got %s\nwant %s", got, want)
	}
}

func TestMultipleForVars(t *testing.T) {
	s := bookStore(t)
	// Cartesian product filtered to the join condition.
	got := evalOK(t, s, `
	  for $a in //book, $b in //book
	  where $a/author = $b/author and $a/@id = "b1" and not($b/@id = "b1")
	  return <same>{$b/@id}</same>`)
	if got != `<same id="b2"/>` {
		t.Errorf("join: %s", got)
	}
}

// TestFLWORHoistedDomains: two for domains that reference no earlier
// variable (hoisted: evaluated once, before the tuple loop) and one that does
// come out in nested-loop order, and an error in a hoisted domain is the
// query's error.
func TestFLWORHoistedDomains(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book[@year > 1999], $x in //book[@id != "b2"]/@id, $a in $b/author
	  return <t b="{$b/@id}" x="{$x}" a="{$a}"/>`)
	want := `<t b="b1" x="b1" a="Stevens"/><t b="b1" x="b3" a="Stevens"/>` +
		`<t b="b3" x="b1" a="Abiteboul"/><t b="b3" x="b1" a="Buneman"/>` +
		`<t b="b3" x="b3" a="Abiteboul"/><t b="b3" x="b3" a="Buneman"/>`
	if got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
	_, err := EvalString(s, `for $b in //book, $x in $nope/title, $a in $b/author return $a`)
	if err == nil || !strings.Contains(err.Error(), "unbound variable $nope") {
		t.Errorf("error in a hoisted domain: %v", err)
	}
}

func TestNestedFLWORInConstructor(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  <summary count="{count(//book)}">{
	    for $b in //book
	    where $b/price > 50
	    return <expensive>{$b/title/text()}</expensive>
	  }</summary>`)
	want := `<summary count="3"><expensive>TCP/IP Illustrated</expensive><expensive>Advanced Programming</expensive></summary>`
	if got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

func TestConstructorMixedContent(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book[@id="b3"]
	  return <out>by {count($b/author)} authors</out>`)
	if got != `<out>by 2 authors</out>` {
		t.Errorf("got %s", got)
	}
}

func TestAttributeNodeAttachesToConstructor(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `for $b in //book[1] return <copy>{$b/@year}{$b/title}</copy>`)
	if got != `<copy year="2003"><title>TCP/IP Illustrated</title></copy>` {
		t.Errorf("got %s", got)
	}
}

func TestScalarSequenceSeparation(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `for $b in //book return string($b/@id)`)
	if got != "b1 b2 b3" {
		t.Errorf("got %q", got)
	}
}

func TestResultInsertsBackIntoStore(t *testing.T) {
	// A query result is a token fragment: insert it into another store.
	s := bookStore(t)
	toks, err := EvalStore(s, `
	  for $b in //book
	  order by $b/price
	  return <entry title="{$b/title}" price="{$b/price}"/>`)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	root, err := dst.Append(xmltok.MustParse(`<pricelist/>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.InsertIntoLast(root, toks); err != nil {
		t.Fatal(err)
	}
	xml, _ := dst.XMLString()
	if !strings.HasPrefix(xml, `<pricelist><entry title="Data on the Web"`) {
		t.Errorf("materialized view: %s", xml)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDeepNestedConstructors(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book[@id="b1"]
	  return <a><b><c x="{$b/@year}">{$b/author/text()}</c></b></a>`)
	if got != `<a><b><c x="2003">Stevens</c></b></a>` {
		t.Errorf("got %s", got)
	}
}

func TestLetOnly(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `let $n := count(//author) return <total>{$n}</total>`)
	if got != `<total>4</total>` {
		t.Errorf("got %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for`,
		`for $x`,
		`for $x in`,
		`for $x in //b`,                   // missing return
		`for $x in //b return`,            // empty return
		`for in //b return $x`,            // missing var
		`let $x //b return $x`,            // missing :=
		`for $x in //b where return $x`,   // empty where
		`for $x in //b order return $x`,   // missing by
		`for $x in //b return <a>`,        // unterminated constructor
		`for $x in //b return <a></b>`,    // mismatched tags
		`for $x in //b return <a x=5/>`,   // unquoted attr
		`for $x in //b return <a>{$x</a>`, // unterminated enclosed
		`for $x in //b return $x trailing`,
		`<a b="{unclosed"/>`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("%q: expected parse error", q)
		}
	}
	// Errors carry position info.
	_, err := Parse(`for $x`)
	if se, ok := err.(*SyntaxError); !ok || !strings.Contains(se.Error(), "offset") {
		t.Errorf("error type: %T %v", err, err)
	}
}

func TestEvalErrors(t *testing.T) {
	s := bookStore(t)
	// Unbound variable.
	if _, err := EvalString(s, `for $x in //book return $y`); err == nil {
		t.Error("unbound variable should fail")
	}
	// for over a scalar.
	if _, err := EvalString(s, `for $x in count(//book) return $x`); err == nil {
		t.Error("for over scalar should fail")
	}
	// Path step on a scalar variable.
	if _, err := EvalString(s, `let $n := count(//book) return $n/title`); err == nil {
		t.Error("path on scalar should fail")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic")
		}
	}()
	MustParse(`for $x`)
}

func TestQueryString(t *testing.T) {
	q := MustParse(`for $b in //book return $b`)
	if !strings.Contains(q.String(), "for $b") {
		t.Error("String() lost the source")
	}
}

func BenchmarkFLWOR(b *testing.B) {
	s, _ := core.Open(core.Config{})
	defer s.Close()
	toks, _ := xmltok.ParseString(books, xmltok.ParseOptions{StripWhitespace: true})
	s.Append(toks)
	q := MustParse(`for $b in //book where $b/price < 100 order by $b/title return <r>{$b/title}</r>`)
	d, err := xpath.FromStore(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(d); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIfThenElse(t *testing.T) {
	s := bookStore(t)
	got := evalOK(t, s, `
	  for $b in //book
	  return if ($b/price > 50)
	         then <pricey>{$b/@id}</pricey>
	         else <bargain>{$b/@id}</bargain>`)
	want := `<pricey id="b1"/><pricey id="b2"/><bargain id="b3"/>`
	if got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
	// Nested if and enclosed usage.
	got = evalOK(t, s, `
	  <verdicts>{
	    for $b in //book
	    return if (count($b/author) > 1) then <multi/> else if ($b/@year > 2000) then <recent/> else <old/>
	  }</verdicts>`)
	if got != `<verdicts><recent/><old/><multi/></verdicts>` {
		t.Errorf("nested if: %s", got)
	}
	// Top-level if.
	got = evalOK(t, s, `if (count(//book) = 3) then <yes/> else <no/>`)
	if got != `<yes/>` {
		t.Errorf("top-level if: %s", got)
	}
	// Union inside XQuery.
	got = evalOK(t, s, `count(//title | //author)`)
	if got != "7" {
		t.Errorf("union count: %s", got)
	}
	// Errors.
	for _, q := range []string{
		`if count(//book) then <a/> else <b/>`, // missing parens
		`if (1) then <a/>`,                     // missing else
		`if (1) <a/> else <b/>`,                // missing then
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("%q: expected parse error", q)
		}
	}
}

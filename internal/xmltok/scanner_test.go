package xmltok

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/token"
)

func scanAll(t *testing.T, src string) []token.Token {
	t.Helper()
	toks, err := ParseString(src, ParseOptions{})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return toks
}

func assertTokens(t *testing.T, got, want []token.Token) {
	t.Helper()
	if !token.Equal(got, want) {
		t.Errorf("token mismatch\n got: %v\nwant: %v", got, want)
	}
}

func TestFigure1(t *testing.T) {
	// The paper's Figure 1 document.
	src := `<ticket><hour>15</hour><name>Paul</name></ticket>`
	got := scanAll(t, src)
	want := []token.Token{
		token.Elem("ticket"),
		token.Elem("hour"), token.TextTok("15"), token.EndElem(),
		token.Elem("name"), token.TextTok("Paul"), token.EndElem(),
		token.EndElem(),
	}
	assertTokens(t, got, want)
	if token.NodeCount(got) != 5 {
		t.Errorf("expected 5 nodes as in Figure 1, got %d", token.NodeCount(got))
	}
}

func TestAttributesBecomeTokens(t *testing.T) {
	got := scanAll(t, `<a x="1" y='2'/>`)
	want := []token.Token{
		token.Elem("a"),
		token.Attr("x", "1"), token.EndAttr(),
		token.Attr("y", "2"), token.EndAttr(),
		token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestSelfClosingNested(t *testing.T) {
	got := scanAll(t, `<a><b/><c/></a>`)
	want := []token.Token{
		token.Elem("a"),
		token.Elem("b"), token.EndElem(),
		token.Elem("c"), token.EndElem(),
		token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestEntities(t *testing.T) {
	got := scanAll(t, `<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>`)
	want := []token.Token{
		token.Elem("a"), token.TextTok(`<x> & "y" 'z'`), token.EndElem(),
	}
	assertTokens(t, got, want)
	// A megabyte of references in one text run scans in linear time.
	got = scanAll(t, "<a>"+strings.Repeat("&amp;", 200000)+"</a>")
	assertTokens(t, got, []token.Token{token.Elem("a"), token.TextTok(strings.Repeat("&", 200000)), token.EndElem()})
}

func TestCharRefs(t *testing.T) {
	got := scanAll(t, `<a>&#65;&#x42;&#x1F600;</a>`)
	want := []token.Token{
		token.Elem("a"), token.TextTok("AB\U0001F600"), token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestEntityInAttribute(t *testing.T) {
	got := scanAll(t, `<a k="&amp;&lt;&#48;"/>`)
	want := []token.Token{
		token.Elem("a"), token.Attr("k", "&<0"), token.EndAttr(), token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestCDATA(t *testing.T) {
	got := scanAll(t, `<a><![CDATA[<not> & markup]]></a>`)
	want := []token.Token{
		token.Elem("a"), token.TextTok("<not> & markup"), token.EndElem(),
	}
	assertTokens(t, got, want)
}

// TestEmptyCDATA: an empty CDATA section is no text node, from a string or
// from a reader, at the start of content or after other content.
func TestEmptyCDATA(t *testing.T) {
	for src, want := range map[string][]token.Token{
		`<a><![CDATA[]]></a>`:                 {token.Elem("a"), token.EndElem()},
		`<a><![CDATA[]]><b/><![CDATA[]]></a>`: {token.Elem("a"), token.Elem("b"), token.EndElem(), token.EndElem()},
		`<a>x<![CDATA[]]></a>`:                {token.Elem("a"), token.TextTok("x"), token.EndElem()},
	} {
		assertTokens(t, scanAll(t, src), want)
		got, err := Parse(&dribbleReader{src: src}, ParseOptions{})
		if err != nil {
			t.Fatalf("%q from a reader: %v", src, err)
		}
		assertTokens(t, got, want)
	}
}

func TestCDATAFoldedIntoText(t *testing.T) {
	got := scanAll(t, `<a>pre<![CDATA[mid]]>post</a>`)
	// The leading text run absorbs the CDATA and following text.
	want := []token.Token{
		token.Elem("a"), token.TextTok("premidpost"), token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestComments(t *testing.T) {
	got := scanAll(t, `<!-- head --><a><!--inner--></a><!-- tail -->`)
	want := []token.Token{
		token.CommentTok(" head "),
		token.Elem("a"), token.CommentTok("inner"), token.EndElem(),
		token.CommentTok(" tail "),
	}
	assertTokens(t, got, want)
}

func TestProcessingInstruction(t *testing.T) {
	got := scanAll(t, `<?xml version="1.0"?><?style href="a.css"?><a/>`)
	want := []token.Token{
		token.PITok("style", `href="a.css"`),
		token.Elem("a"), token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestDoctypeSkipped(t *testing.T) {
	got := scanAll(t, `<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>t</a>`)
	want := []token.Token{
		token.Elem("a"), token.TextTok("t"), token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestMixedContent(t *testing.T) {
	got := scanAll(t, `<p>one <b>two</b> three</p>`)
	want := []token.Token{
		token.Elem("p"), token.TextTok("one "),
		token.Elem("b"), token.TextTok("two"), token.EndElem(),
		token.TextTok(" three"), token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestNamespacePrefixesPreserved(t *testing.T) {
	got := scanAll(t, `<ns:a xmlns:ns="http://x" ns:k="v"/>`)
	want := []token.Token{
		token.Elem("ns:a"),
		token.Attr("xmlns:ns", "http://x"), token.EndAttr(),
		token.Attr("ns:k", "v"), token.EndAttr(),
		token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestUnicodeNamesAndText(t *testing.T) {
	got := scanAll(t, `<日本語 名="値">テキスト</日本語>`)
	want := []token.Token{
		token.Elem("日本語"),
		token.Attr("名", "値"), token.EndAttr(),
		token.TextTok("テキスト"),
		token.EndElem(),
	}
	assertTokens(t, got, want)
}

func TestFragmentMultipleRoots(t *testing.T) {
	toks, err := ParseFragmentString(`<a/><b/>text`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []token.Token{
		token.Elem("a"), token.EndElem(),
		token.Elem("b"), token.EndElem(),
		token.TextTok("text"),
	}
	assertTokens(t, toks, want)
}

func TestParseOptionsFiltering(t *testing.T) {
	src := `<a> <!--c--> <?p d?> <b/> </a>`
	toks, err := ParseString(src, ParseOptions{
		StripWhitespace: true, DropComments: true, DropPIs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []token.Token{
		token.Elem("a"), token.Elem("b"), token.EndElem(), token.EndElem(),
	}
	assertTokens(t, toks, want)
}

func TestWellFormednessErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"mismatched", `<a></b>`},
		{"unclosed", `<a>`},
		{"stray end", `</a>`},
		{"two roots", `<a/><b/>`},
		{"text outside root", `hello`},
		{"dup attr", `<a x="1" x="2"/>`},
		{"unquoted attr", `<a x=1/>`},
		{"lt in attr", `<a x="<"/>`},
		{"bad entity", `<a>&bogus;</a>`},
		{"bad charref", `<a>&#xZZ;</a>`},
		{"eof in comment", `<a><!-- never ends`},
		{"double dash comment", `<a><!-- x -- y --></a>`},
		{"eof in cdata", `<a><![CDATA[never`},
		{"eof in pi", `<a><?pi never`},
		{"bad name start", `<1a/>`},
		{"eof in tag", `<a x="v"`},
		{"content after root", `<a/>junk`},
		{"eof in attr value", `<a x="unterminated`},
		{"missing eq", `<a x "v"/>`},
		{"empty", ``},
		{"eof in doctype", `<!DOCTYPE a [`},
		{"bad bang", `<a><!WHAT></a>`},
		{"slash not close", `<a/x>`},
		{"entity too long", `<a>&aaaaaaaaaaaaaaaaaaaaaaaaaa;</a>`},
	}
	for _, c := range bad {
		if _, err := ParseString(c.src, ParseOptions{}); err == nil {
			t.Errorf("%s: expected error for %q", c.name, c.src)
		}
	}
}

func TestSyntaxErrorHasOffset(t *testing.T) {
	_, err := ParseString(`<a></b>`, ParseOptions{})
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("expected *SyntaxError, got %T: %v", err, err)
	}
	if se.Offset <= 0 {
		t.Errorf("offset should be positive: %d", se.Offset)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("error text: %q", se.Error())
	}
}

func TestScannerPullInterface(t *testing.T) {
	s := NewScanner(strings.NewReader(`<a k="v">x</a>`))
	var kinds []token.Kind
	for {
		tok, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, tok.Kind)
	}
	want := []token.Kind{
		token.BeginElement, token.BeginAttribute, token.EndAttribute,
		token.Text, token.EndElement,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// Error after EOF is sticky EOF.
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("after EOF: %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse(`<a>`)
}

func TestMustParseFragment(t *testing.T) {
	toks := MustParseFragment(`<a/><b/>`)
	if len(toks) != 4 {
		t.Fatalf("got %d tokens", len(toks))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseFragment should panic on bad input")
		}
	}()
	MustParseFragment(`<a>`)
}

func TestDeepNesting(t *testing.T) {
	var sb strings.Builder
	const depth = 2000
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	toks := scanAll(t, sb.String())
	if token.NodeCount(toks) != depth+1 {
		t.Errorf("node count = %d", token.NodeCount(toks))
	}
	if err := token.ValidateFragment(toks); err != nil {
		t.Error(err)
	}
}

func TestWhitespaceHandling(t *testing.T) {
	// Whitespace inside elements is significant.
	got := scanAll(t, "<a>  \n\t</a>")
	want := []token.Token{
		token.Elem("a"), token.TextTok("  \n\t"), token.EndElem(),
	}
	assertTokens(t, got, want)
	// Whitespace around the root is not.
	got = scanAll(t, "  <a/>  ")
	assertTokens(t, got, []token.Token{token.Elem("a"), token.EndElem()})
}

// TestParseAllocations pins what an insert's parse allocates: the token
// slice, with names and values taken in place from the input — and, into a
// slice the caller reuses, nothing.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := ParseFragmentString(purchaseOrder, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 6 {
		t.Errorf("ParseFragmentString: %.1f allocations per order, want at most 6", n)
	}
	// Into a reused slice, the parse allocates nothing at all: the scanner
	// and its stack of open names live on the caller's stack.
	var toks []token.Token
	var err error
	n = testing.AllocsPerRun(200, func() {
		if toks, err = AppendFragment(toks[:0], purchaseOrder, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("AppendFragment into a reused slice: %.1f allocations per order, want none", n)
	}
}

// TestLoadXMLStreamBoundedWindow streams a ≈20 MB document, generated as it
// is read, through the reader scanner axml.LoadXMLStream runs: the window
// never holds more than one refill plus twice the largest construct,
// including tokens several windows long.
func TestLoadXMLStreamBoundedWindow(t *testing.T) {
	const orders = 75000
	long := strings.Repeat("x", 3*windowSize+5)
	gen := &orderStream{n: orders, long: long}
	s := NewScanner(gen)
	maxWindow, begins, longs := 0, 0, 0
	for {
		tok, err := s.Next()
		maxWindow = max(maxWindow, len(s.src))
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case tok.Kind == token.BeginElement && tok.Name == "purchase-order":
			begins++
		case tok.Kind == token.Text && tok.Value == long:
			longs++
		}
	}
	if gen.sent < 20e6 || begins != orders || longs != orders/orderStreamLongEvery {
		t.Fatalf("streamed %d bytes, %d orders, %d long texts", gen.sent, begins, longs)
	}
	// The text run's construct is the token plus the lookahead that tells
	// its closing '<' from a CDATA section.
	construct := len(long) + len(cdataOpen)
	if bound := windowSize + 2*construct; maxWindow > bound {
		t.Errorf("window reached %d bytes, bound %d (window %d + twice the largest construct %d)", maxWindow, bound, windowSize, construct)
	}
}

// TestReaderLongTokenLinear streams a 16 MiB text token through a reader
// that returns 4 KiB per Read. Each refill reads at least what the window
// already holds of the token, so the scanner allocates (and copies) a few
// times the token in all; a refill per Read would copy ≈ 32 GB.
func TestReaderLongTokenLinear(t *testing.T) {
	const size = 16 << 20
	s := NewScanner(io.MultiReader(strings.NewReader("<a>"), &xReader{n: size, chunk: 4096}, strings.NewReader("</a>")))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	maxWindow, text := 0, 0
	for {
		tok, err := s.Next()
		maxWindow = max(maxWindow, len(s.src))
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == token.Text {
			text = len(tok.Value)
		}
	}
	runtime.ReadMemStats(&after)
	if text != size {
		t.Fatalf("text token of %d bytes, want %d", text, size)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte token: %d bytes allocated, window up to %d bytes", size, alloc, maxWindow)
	if alloc > 6*size {
		t.Errorf("allocated %d bytes for a %d-byte token, want at most 6x", alloc, size)
	}
	if bound := windowSize + 2*(size+len(cdataOpen)); maxWindow > bound {
		t.Errorf("window reached %d bytes, bound %d", maxWindow, bound)
	}
}

// xReader returns n bytes of 'x', at most chunk per Read.
type xReader struct{ n, chunk int }

func (x *xReader) Read(p []byte) (int, error) {
	if x.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), x.chunk, x.n)
	for i := range p[:k] {
		p[i] = 'x'
	}
	x.n -= k
	return k, nil
}

// TestManyAttributes scans an element with 100 000 distinct attributes in
// about the time of as many empty elements, from a string and from a reader,
// and still rejects it when a duplicate of an early attribute comes last.
// Comparing each name against every earlier one would take ≈ 5·10⁹
// comparisons.
func TestManyAttributes(t *testing.T) {
	const n = 100000
	var attrs, elems strings.Builder
	attrs.WriteString("<a")
	elems.WriteString("<a>")
	for k := range n {
		fmt.Fprintf(&attrs, ` a%d=""`, k)
		fmt.Fprintf(&elems, `<a%d/>`, k)
	}
	elems.WriteString("</a>")
	doc, dup := attrs.String()+"/>", attrs.String()+` a7=""/>`
	fastest := func(src string) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 3 {
			began := time.Now()
			if _, err := ParseString(src, ParseOptions{}); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(began))
		}
		return best
	}
	took, base := fastest(doc), fastest(elems.String())
	t.Logf("%d attributes: %v; %d empty elements: %v", n, took, n, base)
	if took > 20*base {
		t.Errorf("%d attributes took %v, %d empty elements %v", n, took, n, base)
	}
	toks, err := Parse(strings.NewReader(doc), ParseOptions{})
	if err != nil || len(toks) != 2*n+2 {
		t.Fatalf("reader: %d tokens, error %v", len(toks), err)
	}
	for _, parse := range []func() error{
		func() error { _, err := ParseString(dup, ParseOptions{}); return err },
		func() error { _, err := Parse(strings.NewReader(dup), ParseOptions{}); return err },
	} {
		if err := parse(); err == nil || !strings.Contains(err.Error(), `duplicate attribute "a7"`) {
			t.Errorf("duplicate placed last: error %v", err)
		}
	}
	// Either side of the switch to a map, the first and the last name repeat.
	for k := maxListAttrs - 1; k <= maxListAttrs+1; k++ {
		var b strings.Builder
		b.WriteString("<a")
		for j := range k {
			fmt.Fprintf(&b, ` a%d=""`, j)
		}
		for _, last := range []int{0, k - 1} {
			if _, err := ParseString(b.String()+fmt.Sprintf(` a%d=""/>`, last), ParseOptions{}); err == nil {
				t.Errorf("%d attributes, then a%d again: accepted", k, last)
			}
		}
		if _, err := ParseString(b.String()+fmt.Sprintf(` a%d=""/>`, k), ParseOptions{}); err != nil {
			t.Errorf("%d distinct attributes: %v", k+1, err)
		}
	}
}

const orderStreamLongEvery = 5000

// orderStream generates <orders> with n purchase orders as it is read; every
// orderStreamLongEvery-th order carries a text token of long's length.
type orderStream struct {
	n, next int
	long    string
	pend    string
	sent    int
}

func (g *orderStream) Read(p []byte) (int, error) {
	for g.pend == "" {
		switch {
		case g.next == 0:
			g.pend = "<orders>"
		case g.next <= g.n && g.next%orderStreamLongEvery == 0:
			g.pend = "<note>" + g.long + "</note>" + purchaseOrder
		case g.next <= g.n:
			g.pend = purchaseOrder
		case g.next == g.n+1:
			g.pend = "</orders>"
		default:
			return 0, io.EOF
		}
		g.next++
	}
	n := copy(p, g.pend)
	g.pend = g.pend[n:]
	g.sent += n
	return n, nil
}

// BenchmarkScan reports the cost per order of a 200-order document, scanned
// in place from a string and through the reader window.
func BenchmarkScan(b *testing.B) {
	const orders = 200
	src := "<orders>" + strings.Repeat(purchaseOrder, orders) + "</orders>"
	inputs := []struct {
		name  string
		parse func() ([]token.Token, error)
	}{
		{"string", func() ([]token.Token, error) { return ParseString(src, ParseOptions{}) }},
		{"reader", func() ([]token.Token, error) { return Parse(strings.NewReader(src), ParseOptions{}) }},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := in.parse(); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perOrder := float64(b.N * orders)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perOrder, "ns/order")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perOrder, "allocs/order")
		})
	}
}

package xmltok

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/token"
)

func TestSerializeBasic(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<a/>`, `<a/>`},
		{`<a></a>`, `<a/>`},
		{`<a x="1"/>`, `<a x="1"/>`},
		{`<a>text</a>`, `<a>text</a>`},
		{`<a><b/>mid<c/></a>`, `<a><b/>mid<c/></a>`},
		{`<a>&lt;&amp;&gt;</a>`, `<a>&lt;&amp;&gt;</a>`},
		{`<a k="&quot;x&quot;"/>`, `<a k="&quot;x&quot;"/>`},
		{`<a><!--c--><?p d?></a>`, `<a><!--c--><?p d?></a>`},
	}
	for _, c := range cases {
		toks, err := ParseString(c.src, ParseOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		got, err := ToString(toks)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("serialize %q = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestSerializeErrors(t *testing.T) {
	bad := [][]token.Token{
		{token.EndElem()},
		{token.Attr("k", "v")}, // attr outside element start
		{token.Elem("a"), token.TextTok("x"), token.Attr("k", "v")}, // attr after content
		{token.EndAttr()},
		{{Kind: token.Invalid}},
	}
	for i, seq := range bad {
		if _, err := ToString(seq); err == nil {
			t.Errorf("case %d: expected serialize error", i)
		}
	}
	// Unclosed element is caught at Flush.
	s := NewSerializer(&strings.Builder{})
	if err := s.Write(token.Elem("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Error("expected flush error for unclosed element")
	}
}

func TestSerializerStickyError(t *testing.T) {
	s := NewSerializer(&strings.Builder{})
	if err := s.Write(token.EndElem()); err == nil {
		t.Fatal("expected error")
	}
	if err := s.Write(token.Elem("a")); err == nil {
		t.Error("error should be sticky")
	}
	if err := s.Flush(); err == nil {
		t.Error("flush should report sticky error")
	}
}

func TestDocumentBracketsIgnored(t *testing.T) {
	seq := []token.Token{
		{Kind: token.BeginDocument},
		token.Elem("a"), token.EndElem(),
		{Kind: token.EndDocument},
	}
	got, err := ToString(seq)
	if err != nil {
		t.Fatal(err)
	}
	if got != `<a/>` {
		t.Errorf("got %q", got)
	}
}

func TestEscapeHelpers(t *testing.T) {
	if got := string(appendEscaped(nil, `a<b>&"c`, '>')); got != `a&lt;b&gt;&amp;"c` {
		t.Errorf("text: %q", got)
	}
	if got := string(appendEscaped(nil, []byte(`"a"&<>`), '"')); got != `&quot;a&quot;&amp;&lt;>` {
		t.Errorf("attribute value: %q", got)
	}
}

// randomFragment builds a random well-formed token fragment.
func randomFragment(r *rand.Rand, maxNodes int) []token.Token {
	var out []token.Token
	var build func(depth int)
	names := []string{"a", "b", "item", "order", "x1"}
	nodes := 0
	build = func(depth int) {
		if nodes >= maxNodes {
			return
		}
		nodes++
		switch r.Intn(4) {
		case 0, 1: // element
			out = append(out, token.Elem(names[r.Intn(len(names))]))
			for a := 0; a < r.Intn(3); a++ {
				out = append(out,
					token.Attr(names[r.Intn(len(names))]+"_"+string(rune('a'+a)), "v"),
					token.EndAttr())
			}
			for c := 0; c < r.Intn(4) && depth < 6; c++ {
				build(depth + 1)
			}
			out = append(out, token.EndElem())
		case 2:
			out = append(out, token.TextTok("text-"+names[r.Intn(len(names))]))
		case 3:
			out = append(out, token.CommentTok("c"))
		}
	}
	for nodes < maxNodes {
		build(0)
	}
	return out
}

func TestPropertyRoundTrip(t *testing.T) {
	// Serializing and re-parsing any well-formed fragment must yield the
	// identical token sequence (text tokens here never abut, and no token
	// values need re-escaping beyond what serialize does).
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		frag := randomFragment(r, 30)
		if err := token.ValidateFragment(frag); err != nil {
			t.Fatalf("trial %d: generator produced invalid fragment: %v", trial, err)
		}
		xml, err := ToString(frag)
		if err != nil {
			t.Fatalf("trial %d: serialize: %v", trial, err)
		}
		back, err := ParseFragmentString(xml, ParseOptions{})
		if err != nil {
			t.Fatalf("trial %d: reparse %q: %v", trial, xml, err)
		}
		if !token.Equal(mergeAdjacentText(back), mergeAdjacentText(frag)) {
			t.Fatalf("trial %d: round trip mismatch\nxml: %s\n got: %v\nwant: %v",
				trial, xml, back, frag)
		}
	}
}

// mergeAdjacentText normalizes fragments where two text tokens are adjacent
// (the parser cannot distinguish them from one) and drops empty text tokens
// (serialized, one is nothing).
func mergeAdjacentText(seq []token.Token) []token.Token {
	var out []token.Token
	for _, t := range seq {
		if t.Kind == token.Text && t.Value == "" {
			continue
		}
		if t.Kind == token.Text && len(out) > 0 && out[len(out)-1].Kind == token.Text {
			out[len(out)-1].Value += t.Value
			continue
		}
		out = append(out, t)
	}
	return out
}

func BenchmarkSerialize(b *testing.B) {
	frag := randomFragment(rand.New(rand.NewSource(1)), 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ToString(frag); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendTokenBytesAndStreaming: the writer gives the same text whether
// names and values arrive as strings or as bytes, whether the output is one
// slice or a stream flushed every few kilobytes, and a Reset makes an
// Appender that stopped mid-element as good as new.
func TestAppendTokenBytesAndStreaming(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var seq []token.Token
	seq = append(seq, token.Elem("doc"))
	for len(seq) < 4000 { // several flushes' worth
		seq = append(seq, randomFragment(r, 12)...)
	}
	seq = append(seq, token.TextTok(`a<b>&"c"`), token.EndElem())
	want, err := ToString(seq)
	if err != nil {
		t.Fatal(err)
	}
	var a Appender
	a.names = append(a.names, "stale"...)
	a.starts, a.openTag = append(a.starts, 0), true
	a.Reset()
	var got []byte
	for _, tk := range seq {
		if got, err = AppendToken(&a, got, tk.Kind, []byte(tk.Name), []byte(tk.Value)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err = a.Finish(got); err != nil || string(got) != want {
		t.Fatalf("from bytes: %d bytes, %v; from strings %d", len(got), err, len(want))
	}
	var chunks chunkCounter
	if err := Serialize(&chunks, seq); err != nil || chunks.sb.String() != want {
		t.Fatalf("streamed: %d bytes, %v; want %d", chunks.sb.Len(), err, len(want))
	}
	if chunks.n < len(want)/serializerFlushBytes/2 || chunks.n > len(want) {
		t.Errorf("streamed %d bytes in %d writes", len(want), chunks.n)
	}
}

type chunkCounter struct {
	sb strings.Builder
	n  int
}

func (c *chunkCounter) Write(p []byte) (int, error) {
	c.n++
	return c.sb.Write(p)
}

package token

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTripSingle(t *testing.T) {
	cases := []Token{
		Elem("ticket"),
		EndElem(),
		Attr("id", "12345"),
		EndAttr(),
		TextTok("hello world"),
		CommentTok("a comment"),
		PITok("target", "some data"),
		{Kind: BeginDocument},
		{Kind: EndDocument},
		{Kind: BeginElement, Name: "typed", Type: 42},
		{Kind: Text, Value: "", Type: 7},
		TextTok(""), // empty value
		Elem(""),    // empty name (degenerate but encodable)
	}
	for _, in := range cases {
		b := Append(nil, in)
		if len(b) != EncodedSize(in) {
			t.Errorf("%s: EncodedSize = %d, len = %d", in, EncodedSize(in), len(b))
		}
		out, n, err := Decode(b)
		if err != nil {
			t.Errorf("%s: decode error %v", in, err)
			continue
		}
		if n != len(b) {
			t.Errorf("%s: consumed %d of %d bytes", in, n, len(b))
		}
		if out != in {
			t.Errorf("round trip: got %s, want %s", out, in)
		}
	}
}

func TestRoundTripSequence(t *testing.T) {
	seq := []Token{
		Elem("ticket"),
		Elem("hour"), TextTok("15"), EndElem(),
		Elem("name"), TextTok("Paul"), EndElem(),
		EndElem(),
	}
	b := EncodeAll(seq)
	got, err := DecodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, seq) {
		t.Fatalf("got %v, want %v", got, seq)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := Decode([]byte{0}); err == nil {
		t.Error("invalid kind should error")
	}
	if _, _, err := Decode([]byte{99, 0}); err == nil {
		t.Error("out-of-range kind should error")
	}
	// Begin element with truncated name length.
	if _, _, err := Decode([]byte{byte(BeginElement), 0}); err == nil {
		t.Error("truncated name should error")
	}
	// Name length longer than buffer.
	if _, _, err := Decode([]byte{byte(BeginElement), 0, 10, 'a'}); err == nil {
		t.Error("short name should error")
	}
	// Truncated uvarint (continuation bit set, no more bytes).
	if _, _, err := Decode([]byte{byte(Text), 0x80}); err == nil {
		t.Error("truncated type varint should error")
	}
	if _, err := DecodeAll([]byte{byte(Text), 0, 0x80}); err == nil {
		t.Error("DecodeAll on corrupt tail should error")
	}
}

func randomToken(r *rand.Rand) Token {
	kinds := []Kind{
		BeginDocument, EndDocument, BeginElement, EndElement,
		BeginAttribute, EndAttribute, Text, Comment, PI,
	}
	k := kinds[r.Intn(len(kinds))]
	tok := Token{Kind: k, Type: Type(r.Intn(1 << 16))}
	rs := func(n int) string {
		b := make([]byte, r.Intn(n))
		r.Read(b)
		return string(b)
	}
	if kindHasName(k) {
		tok.Name = rs(40)
	}
	if kindHasValue(k) {
		tok.Value = rs(200)
	}
	return tok
}

// Generate implements quick.Generator so sequences only contain encodable
// field combinations.
func (Token) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomToken(r))
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seq []Token) bool {
		b := EncodeAll(seq)
		got, err := DecodeAll(b)
		if err != nil {
			return false
		}
		if len(got) == 0 && len(seq) == 0 {
			return true
		}
		return Equal(got, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodedSizeMatches(t *testing.T) {
	f := func(tok Token) bool {
		return len(Append(nil, tok)) == EncodedSize(tok)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReaderWalk(t *testing.T) {
	seq := []Token{
		Elem("a"), Attr("k", "v"), EndAttr(), TextTok("body"), EndElem(),
	}
	buf := EncodeAll(seq)
	r := NewReader(buf)
	var got []Token
	var offsets []int
	for r.More() {
		offsets = append(offsets, r.Offset())
		tok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
	}
	if !Equal(got, seq) {
		t.Fatalf("walk mismatch: %v", got)
	}
	// Re-read the third token via SetOffset.
	r.SetOffset(offsets[2])
	tok, err := r.Next()
	if err != nil || tok.Kind != EndAttribute {
		t.Fatalf("SetOffset reread: %v %v", tok, err)
	}
}

func TestReaderSkip(t *testing.T) {
	seq := []Token{Elem("abc"), TextTok("hello"), EndElem()}
	buf := EncodeAll(seq)
	r := NewReader(buf)
	for i, want := range []Kind{BeginElement, Text, EndElement} {
		k, err := r.Skip()
		if err != nil {
			t.Fatal(err)
		}
		if k != want {
			t.Fatalf("skip %d: got %s, want %s", i, k, want)
		}
	}
	if r.More() {
		t.Error("reader should be exhausted")
	}
	if _, err := r.Skip(); err == nil {
		t.Error("skip past end should error")
	}
	// Skip must consume exactly the same bytes as Next.
	r1, r2 := NewReader(buf), NewReader(buf)
	for r1.More() {
		if _, err := r1.Skip(); err != nil {
			t.Fatal(err)
		}
		if _, err := r2.Next(); err != nil {
			t.Fatal(err)
		}
		if r1.Offset() != r2.Offset() {
			t.Fatalf("offset divergence: %d vs %d", r1.Offset(), r2.Offset())
		}
	}
}

func TestSkipErrors(t *testing.T) {
	bad := [][]byte{
		{0},                        // invalid kind
		{byte(BeginElement), 0x80}, // truncated type varint
		{byte(BeginElement), 0, 5}, // name shorter than declared
		{byte(Text), 0, 0x80},      // truncated value length
	}
	for i, b := range bad {
		r := NewReader(b)
		if _, err := r.Skip(); err == nil {
			t.Errorf("case %d: expected skip error", i)
		}
	}
}

func TestAppendAllGrowsBuffer(t *testing.T) {
	seq := make([]Token, 100)
	for i := range seq {
		seq[i] = TextTok(string(bytes.Repeat([]byte{'x'}, 100)))
	}
	b := AppendAll(make([]byte, 0, 8), seq)
	got, err := DecodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d tokens", len(got))
	}
}

func BenchmarkEncodeToken(b *testing.B) {
	tok := Elem("purchase-order")
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Append(buf[:0], tok)
	}
}

func BenchmarkDecodeToken(b *testing.B) {
	buf := Append(nil, Attr("status", "shipped"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderSkip(b *testing.B) {
	seq := []Token{
		Elem("order"), Attr("id", "99"), EndAttr(), TextTok("some text content"), EndElem(),
	}
	buf := EncodeAll(seq)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for r.More() {
			if _, err := r.Skip(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestDictRoundTrip(t *testing.T) {
	seq := []Token{
		{Kind: BeginDocument}, Elem("order"), Attr("id", "7"), EndAttr(),
		Elem("line"), TextTok("bolt"), EndElem(), PITok("pi", "d"), CommentTok("c"),
		Elem("order"), Elem(""), EndElem(), EndElem(), EndElem(), {Kind: EndDocument},
	}
	d := NewDict(1<<10, nil)
	enc := d.EncodeAll(seq)
	if d.Len() != 4 { // order, id, line, pi; the empty name stays inline
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	if len(enc) >= len(EncodeAll(seq)) {
		t.Fatalf("id form %d bytes, inline %d", len(enc), len(EncodeAll(seq)))
	}
	back, err := d.DecodeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, seq) {
		t.Fatalf("round trip:\n got %v\nwant %v", back, seq)
	}
	// The second <order> reuses the first one's id: one byte, kind|flag, type.
	if got := d.Append(nil, Elem("order")); !bytes.Equal(got, []byte{byte(BeginElement) | nameRef, 0, 0}) {
		t.Fatalf("Elem(order) encodes as %x", got)
	}
	// View hands out the interned name.
	k, name, _, n, err := d.View(enc[2:])
	if err != nil || k != BeginElement || string(name) != "order" || n != 3 {
		t.Fatalf("View = %v %q %d %v", k, name, n, err)
	}
	// The table reloads to the same ids.
	d2 := NewDict(1<<10, nil)
	if err := d2.Load(d.AppendTable(nil)); err != nil {
		t.Fatal(err)
	}
	if back, err := d2.DecodeAll(enc); err != nil || !reflect.DeepEqual(back, seq) {
		t.Fatalf("decode through a reloaded table: %v", err)
	}
}

func TestDictErrors(t *testing.T) {
	var heard []error
	d := NewDict(1<<10, func(err error) { heard = append(heard, err) })
	enc := d.EncodeAll([]Token{Elem("a"), EndElem()})
	// Inline-only decoding (and a decoder that predates ids) rejects them.
	if _, _, err := Decode(enc); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("inline Decode of an id: %v, want ErrUnknownName", err)
	}
	if Kind(enc[0]).Valid() {
		t.Fatal("an id-form kind byte is a valid kind to a decoder that masks nothing")
	}
	// An id past the table is a typed error the dictionary reports.
	if _, _, err := d.Decode([]byte{byte(BeginElement) | nameRef, 0, 9}); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown id: %v", err)
	}
	if _, _, _, _, err := d.View([]byte{byte(BeginElement) | nameRef, 0, 9}); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown id in View: %v", err)
	}
	if len(heard) != 2 {
		t.Fatalf("onBad heard %d errors, want 2", len(heard))
	}
	// Size steps over an id without a dictionary, and only a named kind
	// may carry the flag.
	if n, err := Size(enc); err != nil || n != 3 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if _, err := Size([]byte{byte(EndElement) | nameRef, 0}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("flag on a nameless kind: %v", err)
	}
	// One encoding per token: an overlong varint is rejected.
	if _, err := Size([]byte{byte(EndElement), 0x80, 0x00}); !errors.Is(err, ErrBadVarint) {
		t.Fatalf("overlong type varint: %v", err)
	}
	// A malformed table leaves the dictionary as it was.
	if err := d.Load([]byte{1, 'a', 1, 'a'}); err == nil {
		t.Fatal("a table naming a twice loaded")
	}
	if err := d.Load([]byte{5, 'a'}); err == nil {
		t.Fatal("a cut-short table loaded")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d after failed loads, want 1", d.Len())
	}
}

func TestDictLimit(t *testing.T) {
	d := NewDict(8, nil) // room for "abc" and "de" (4 + 3 bytes), not "fgh"
	enc := d.EncodeAll([]Token{Elem("abc"), Elem("de"), Elem("fgh"), EndElem(), EndElem(), EndElem()})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if KindOf(enc[6]) != BeginElement || enc[6]&nameRef != 0 {
		t.Fatalf("the name past the limit is not inline: %x", enc)
	}
	back, err := d.DecodeAll(enc)
	if err != nil || back[2].Name != "fgh" {
		t.Fatalf("decode: %v %v", back, err)
	}
}

// TestDictConcurrentLearnAndDecode: readers decode bytes through a Dict
// while a writer keeps teaching it names; a reader handed bytes sees every id
// in them.
func TestDictConcurrentLearnAndDecode(t *testing.T) {
	d := NewDict(1<<16, nil)
	encoded := make(chan []byte, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range encoded {
				tok, _, err := d.Decode(b)
				if err != nil || !strings.HasPrefix(tok.Name, "name-") {
					t.Errorf("decode %x: %v %v", b, tok, err)
				}
				if _, name, _, _, err := d.View(b); err != nil || string(name) != tok.Name {
					t.Errorf("view %x: %q %v", b, name, err)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		encoded <- d.Append(nil, Elem(fmt.Sprintf("name-%d", i%500)))
	}
	close(encoded)
	wg.Wait()
	if d.Len() != 500 {
		t.Fatalf("Len = %d, want 500", d.Len())
	}
}

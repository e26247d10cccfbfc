package xmltok

import (
	"io"
	"strings"
	"testing"

	"repro/internal/token"
)

// parseSeeds seed both scanner fuzz targets.
var parseSeeds = []string{
	`<a/>`,
	`<ticket><hour>15</hour><name>Paul</name></ticket>`,
	`<a x="1" y='2'>text &amp; more</a>`,
	`<a><![CDATA[raw]]><!--c--><?pi d?></a>`,
	`<?xml version="1.0"?><!DOCTYPE a []><a>&#65;</a>`,
	`<日本語 名="値">テキスト</日本語>`,
	`<a`, `</a>`, `<a>&bogus;</a>`, `<<>>`, "",
	`<a b="&#x10FFFF;"/>`,
}

// purchaseOrder is one order of the benchmark corpus's shape: what every
// insert parses.
const purchaseOrder = `<purchase-order id="PO-0000042" status="open"><customer>Globex</customer>` +
	`<date>2005-03-14</date><line no="1"><item>widget</item><qty>3</qty><price>12.50</price></line>` +
	`<line no="2"><item>bolt</item><qty>40</qty><price>0.25</price></line></purchase-order>`

// FuzzParse feeds arbitrary bytes to the scanner: it must never panic, and
// anything it accepts must be a well-formed token sequence that survives a
// serialize→reparse round trip.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := ParseString(src, ParseOptions{})
		if err != nil {
			return // rejected input is fine
		}
		if err := token.ValidateFragment(toks); err != nil {
			t.Fatalf("accepted %q but tokens invalid: %v", src, err)
		}
		xml, err := ToString(toks)
		if err != nil {
			t.Fatalf("accepted %q but cannot serialize: %v", src, err)
		}
		back, err := ParseFragmentString(xml, ParseOptions{})
		if err != nil {
			t.Fatalf("own output %q does not reparse: %v", xml, err)
		}
		// Adjacent text runs merge in the reparse; normalize both sides.
		if !token.Equal(mergeAdjacentText(back), mergeAdjacentText(toks)) {
			t.Fatalf("round trip changed %q -> %q", src, xml)
		}
	})
}

// FuzzScannerDifferential holds the scanner to the one it replaced (kept in
// reference_test.go): as a document and as a fragment, from a string and from
// a reader that returns 1–7 bytes per Read — so every token boundary crosses
// a refill — the tokens must be the same, or both must reject.
func FuzzScannerDifferential(f *testing.F) {
	edges := []string{
		purchaseOrder, purchaseOrder + purchaseOrder,
		"<a→/>", "<a x\xe6=\"1\"/>", "<?pi→d?><a/>", "<a\xe6>", // a non-ASCII rune that ends a name is consumed
		`<!D]]><a/>`, `<a>&#0000000000000065;</a>`, `<a>&#00000000000000065;</a>`, // bracket depth; the longest reference
		`<a><![CDATA[]]></a>`, `<![CDATA[x]]><a/>`, `<a>x<![CDATA[`, `<a>x<![CDA`,
		`<a x="1"y='&quot;'/>`, `<!-- a --->` + `<a/>`, " \n<a/> ",
	}
	for _, s := range append(parseSeeds, edges...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, fragment := range []bool{false, true} {
			want, wantErr := refParse(strings.NewReader(src), fragment)
			check := func(input string, got []token.Token, err error) {
				t.Helper()
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s, fragment=%v, %q: error %v, reference error %v", input, fragment, src, err, wantErr)
				}
				if !token.Equal(got, want) {
					t.Fatalf("%s, fragment=%v, %q:\n got: %v\nwant: %v", input, fragment, src, got, want)
				}
			}
			got, err := parsed(collect(nil, newScanner(src, nil, fragment), ParseOptions{}))
			check("string", got, err)
			got, err = parsed(collect(nil, newScanner("", &dribbleReader{src: src}, fragment), ParseOptions{}))
			check("reader", got, err)
		}
		checkAppendFragment(t, src)
	})
}

// checkAppendFragment holds AppendFragment to ParseFragmentString over a
// dirty slice: src is parsed behind a stale prefix twice, the second time
// into the array the first one filled, and each time the prefix must stay as
// it was and what follows it must be ParseFragmentString's tokens — or, when
// that rejects src, the slice must come back as it went in.
func checkAppendFragment(t *testing.T, src string) {
	want, wantErr := ParseFragmentString(src, ParseOptions{})
	prefix := []token.Token{token.Elem("stale"), token.TextTok(src), token.EndElem()}
	buf := append(make([]token.Token, 0, len(prefix)+1), prefix...)
	for pass := 0; pass < 2; pass++ {
		got, err := AppendFragment(buf[:len(prefix)], src, ParseOptions{})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("append pass %d, %q: error %v, ParseFragmentString error %v", pass, src, err, wantErr)
		}
		if !token.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("append pass %d, %q: the prefix became %v", pass, src, got[:len(prefix)])
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("append pass %d, %q: a rejected parse left %d tokens behind the prefix", pass, src, len(got)-len(prefix))
			}
			return
		}
		if !token.Equal(got[len(prefix):], want) {
			t.Fatalf("append pass %d, %q:\n got: %v\nwant: %v", pass, src, got[len(prefix):], want)
		}
		buf = got
	}
}

// dribbleReader hands out its string 1–7 bytes per Read.
type dribbleReader struct {
	src   string
	calls int
}

func (d *dribbleReader) Read(p []byte) (int, error) {
	if d.src == "" {
		return 0, io.EOF
	}
	d.calls++
	n := min(1+d.calls*3%7, len(p), len(d.src))
	copy(p, d.src[:n])
	d.src = d.src[n:]
	return n, nil
}

// FuzzTokenCodec checks the binary token codec in both of its name forms.
// Arbitrary bytes, decoded inline and against a dictionary of arbitrary
// names, never panic or over-read, and every token decoded re-encodes to the
// same bytes (one encoding per token): Size and View agree with Decode on
// every one. And whatever the scanner accepts round-trips, encoded inline
// and through a dictionary that only ever learns names.
func FuzzTokenCodec(f *testing.F) {
	tokens := []token.Token{
		token.Elem("a"), token.Attr("k", "v"), token.EndAttr(),
		token.TextTok("x"), token.PITok("p", "d"), token.EndElem(),
	}
	withIDs := token.NewDict(1<<10, nil)
	f.Add(token.EncodeAll(tokens), "a,k", purchaseOrder)
	f.Add(withIDs.EncodeAll(tokens), "a,k,p", parseSeeds[1])
	f.Add([]byte{0xFF, 0x00, 0x80}, "", "")
	f.Add([]byte{0x83, 0x00, 0x05}, "x", "<a/>")           // an id past the table
	f.Add([]byte{0x84, 0x00}, "", "")                      // an id flag on a nameless kind
	f.Add([]byte{0x03, 0x80, 0x00, 0x01, 'a'}, "", "<a/>") // an overlong type varint
	for _, src := range parseSeeds {
		f.Add([]byte(nil), "", src)
	}
	f.Fuzz(func(t *testing.T, data []byte, names, src string) {
		d := token.NewDict(1<<10, nil)
		for _, name := range strings.Split(names, ",") {
			d.Append(nil, token.Elem(name)) // learns name
		}
		for _, dict := range []*token.Dict{nil, d} {
			for pos := 0; pos < len(data); {
				tok, n, err := dict.Decode(data[pos:])
				if err != nil {
					break
				}
				if n <= 0 || pos+n > len(data) {
					t.Fatalf("decode consumed %d of %d remaining", n, len(data)-pos)
				}
				if size, err := token.Size(data[pos:]); err != nil || size != n {
					t.Fatalf("Size says %d (%v), Decode consumed %d", size, err, n)
				}
				k, name, value, size, err := dict.View(data[pos:])
				if err != nil || size != n || k != tok.Kind || string(name) != tok.Name || string(value) != tok.Value {
					t.Fatalf("View disagrees with Decode at %d: %v %q %q %d %v", pos, k, name, value, size, err)
				}
				var re []byte
				if token.KindOf(data[pos]) == token.Kind(data[pos]) {
					re = token.Append(nil, tok)
				} else {
					re = dict.Append(nil, tok) // dict holds tok.Name: no new name
				}
				if string(re) != string(data[pos:pos+n]) {
					t.Fatalf("re-encode mismatch at %d: %x, want %x", pos, re, data[pos:pos+n])
				}
				pos += n
			}
		}

		toks, err := ParseString(src, ParseOptions{})
		if err != nil {
			return
		}
		before := d.Len()
		for _, dict := range []*token.Dict{nil, d} {
			enc := dict.EncodeAll(toks)
			back, err := dict.DecodeAll(enc)
			if err != nil {
				t.Fatalf("decode of an encoding: %v", err)
			}
			if len(back) != len(toks) {
				t.Fatalf("%d tokens back, %d encoded", len(back), len(toks))
			}
			for i := range toks {
				if back[i] != toks[i] {
					t.Fatalf("token %d: %v back, %v encoded", i, back[i], toks[i])
				}
			}
			if dict == nil {
				continue
			}
			if d.Len() < before {
				t.Fatal("the dictionary forgot names")
			}
		}
	})
}

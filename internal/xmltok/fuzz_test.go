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
			got, err := collect(newScanner(src, nil, fragment), ParseOptions{})
			check("string", got, err)
			got, err = collect(newScanner("", &dribbleReader{src: src}, fragment), ParseOptions{})
			check("reader", got, err)
		}
	})
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

// FuzzTokenCodec feeds arbitrary bytes to the binary token decoder: it must
// never panic or over-read, and every decoded prefix must re-encode to the
// same bytes.
func FuzzTokenCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(token.EncodeAll([]token.Token{
		token.Elem("a"), token.Attr("k", "v"), token.EndAttr(),
		token.TextTok("x"), token.EndElem(),
	}))
	f.Add([]byte{0xFF, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		for pos < len(data) {
			tok, n, err := token.Decode(data[pos:])
			if err != nil {
				return
			}
			if n <= 0 || pos+n > len(data) {
				t.Fatalf("decode consumed %d of %d remaining", n, len(data)-pos)
			}
			re := token.Append(nil, tok)
			if string(re) != string(data[pos:pos+n]) {
				t.Fatalf("re-encode mismatch at %d", pos)
			}
			pos += n
		}
	})
}

package xpath

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/token"
	"repro/internal/xmltok"
)

// FuzzXPathParser feeds arbitrary strings to the XPath compiler: Parse must
// never panic, and every accepted expression must plan (pushdown or
// fallback) and evaluate without panicking. For expressions that yield a
// node-set, the store-level executor — which routes through the planner and
// may run as a pushdown scan — must agree with the navigational evaluator
// node for node, so fuzzing doubles as a differential test between the two
// execution paths.
func FuzzXPathParser(f *testing.F) {
	seeds := []string{
		`/catalog/book`,
		`//book`,
		`//book[@id='bk102']/title`,
		`//book[1]`,
		`//line[@no='2'][1]/item`,
		`//a | //b`,
		`//@id`,
		`//book//author`,
		`count(//book)`,
		`string(//book[1]/title)`,
		`//book[price > 10.5]/title`,
		`//book[position()=2]`,
		`//book[last()]`,
		`//*[ancestor::catalog]`,
		`//a[b='x' and @c]`,
		`1 + 2 * 3`,
		`concat('a', "b")`,
		`//book[`, `//[1]`, `]]`, `@`, `//`, ``, `$x/y`,
		`//book[@id="bk101" or @id='bk102']`,
		// predicates over children, decided inside the scan
		`//book[title='B']/price`, `//book[price='9']/title | //title`,
		`//catalog[book]/book[title][2]/@id`, `//book[not(title='A')][1]`,
		`//book[title='A' or price='19'][2]/title`, `//book[2][title='B']`,
		`//*[text()='B']`, `//book[zz]/title`, `//catalog[book/title]`,
		`//book['19'=price and @id]/@id`, `//book[position()=1][title='A']`,
		`//catalog[book='B19']/book[title='A']/price`, `count(//book[price])`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	toks, err := xmltok.ParseString(
		`<catalog><book id="bk101"><title>A</title><price>9</price></book>`+
			`<book id="bk102"><title>B</title><price>19</price></book></catalog>`,
		xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Append(toks); err != nil {
		f.Fatal(err)
	}
	d, err := FromStore(s)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return // rejected input is fine
		}
		PlanQuery(c) // planning must not panic either way it classifies
		v, err := c.EvalWithCtx(ctx, d, d.RootNode, nil)
		if err != nil || v.kind != vNodeSet {
			return // evaluation errors and scalar results need no cross-check
		}
		want := nodeIDs(v.nodes)
		got, err := QueryIDsCtx(ctx, s, src)
		if err != nil {
			t.Fatalf("doc eval accepted %q but store executor rejected it: %v", src, err)
		}
		if !idsEqual(got, want) {
			t.Fatalf("executors disagree on %q: store %v, doc %v", src, got, want)
		}
	})
}

// fuzzPrograms are the fixed scan programs FuzzScanProgramTokens runs over
// every generated stream: each shape the executor decides on its own.
var fuzzPrograms = []string{
	"//a", "/a/b", "//a/@c", "//@c", "//*[2]", "/a/a/@c | //b",
	"//a[@c='x']/b", "//a[b]", "//a[b='x']/e", "//a[b='xy'][1]/e", "//a[b][2]",
	"//a[1][b='x']//e", "//a[not(b) or @c='x']//@c", "//a[text()='x']/b | //b",
	"//a[b='x']/a[e='y']/e", "//a[b='x' and e]/@c", "//a[e='']", "/a[b='x'] | /a/b[e]/e",
}

// fuzzStream turns fuzz bytes into raw tokens over a tiny alphabet, well
// formed or not: unbalanced begins and ends, stray attribute halves,
// truncated encodings and invalid kind bytes are all reachable.
func fuzzStream(data []byte) [][]byte {
	names := []string{"a", "b", "e", "c"}
	vals := []string{"x", "y", "xy", ""}
	var raws [][]byte
	add := func(t token.Token) { raws = append(raws, token.Append(nil, t)) }
	for _, b := range data {
		name, val := names[b>>4&3], vals[b>>6]
		switch b & 15 {
		case 0, 1, 2:
			add(token.Elem(name))
		case 3, 4, 5:
			add(token.EndElem())
		case 6, 7:
			add(token.Attr(name, val))
			add(token.EndAttr())
		case 8, 9:
			add(token.TextTok(val))
		case 10:
			add(token.CommentTok(val))
		case 11:
			add(token.PITok(name, val))
		case 12:
			add(token.Token{Kind: token.BeginDocument})
		case 13:
			add(token.Token{Kind: token.EndDocument})
		case 14:
			add([]token.Token{token.Attr(name, val), token.EndAttr()}[b>>4&1])
		default:
			raw := token.Append(nil, token.Attr(name, "value"))
			raws = append(raws, [][]byte{raw[:len(raw)-1], {0xff}, {}, {byte(token.Text)}}[b>>4&3])
		}
	}
	return raws
}

// runTokens drives the executor the way a store scan does: ids count the
// node-starting tokens.
func runTokens(prog *scanProgram, lits []string, raws [][]byte, fill *tableBuilder) ([]core.NodeID, error) {
	var out []core.NodeID
	e := newScanExec(prog, lits, func(id core.NodeID) bool {
		out = append(out, id)
		return true
	})
	if fill != nil {
		e.capture = fill.capture
	}
	defer e.release()
	next := core.NodeID(1)
	for _, raw := range raws {
		id := core.InvalidNode
		if len(raw) > 0 && token.KindOf(raw[0]).StartsNode() {
			id = next
			next++
		}
		if !e.onToken(id, raw) {
			break
		}
	}
	return out, e.finish()
}

// FuzzScanProgramTokens feeds arbitrary raw token streams to the pushdown
// executor: it must never panic, and whenever BuildDoc accepts the stream it
// must succeed and agree, id for id, with the navigational evaluator.
func FuzzScanProgramTokens(f *testing.F) {
	for _, seed := range []string{
		"\x00\x10\x08\x03\x20\x48\x03\x03",             // <a><b>x</b><e>y</e></a>
		"\x00\x36\x00\x10\x08\x88\x03\x20\x03\x03\x03", // nested a, split text
		"\x00\x0c\x10\x08\x03\x0d\x03", "\x03", "\x00", "\x0e\x00", "\x00\x1e", "\x00\x0f\x03",
		"\x00\x08\x06\x03", "\x06\x00\x03", "\x00\x10\x00\x10\x08\x03\x20\x03\x03\x10\x08\x03\x03",
	} {
		f.Add([]byte(seed))
	}
	var progs []*Plan
	for _, src := range fuzzPrograms {
		c, err := Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		p := PlanQuery(c)
		if !p.Pushdown() {
			f.Fatalf("%s: not a pushdown plan", src)
		}
		progs = append(progs, p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raws := fuzzStream(data)
		var d *Doc
		items := make([]core.Item, 0, len(raws))
		next := core.NodeID(1)
		for _, raw := range raws {
			tok, n, err := token.Decode(raw)
			if err != nil || n != len(raw) {
				items = nil
				break
			}
			it := core.Item{Tok: tok}
			if tok.StartsNode() {
				it.ID = next
				next++
			}
			items = append(items, it)
		}
		if items != nil {
			d, _ = BuildDoc(items)
		}
		for _, p := range progs {
			got, err := runTokens(p.prog, p.c.lits, raws, nil)
			if d == nil {
				continue // malformed: any error or answer, but no panic
			}
			if err != nil {
				t.Fatalf("%s: BuildDoc accepted the stream, the scan did not: %v", p.c.src, err)
			}
			ns, err := p.c.Eval(d)
			if err != nil {
				t.Fatalf("%s: eval: %v", p.c.src, err)
			}
			if want := nodeIDs(ns); !idsEqual(got, want) {
				t.Fatalf("%s: scan %v, evaluator %v", p.c.src, got, want)
			}
		}
	})
}

// FuzzValueTable: over arbitrary raw streams, the table a fill scan builds
// holds, for every value, exactly what the literal program emits for it, in
// the same order — attribute, child and text atoms, with and without [N];
// duplicated attributes and children, attributes out of place, values split
// across tokens, matching elements nested in matching elements and malformed
// streams included (there the fill must fail if the literal scan does).
func FuzzValueTable(f *testing.F) {
	for _, seed := range []string{
		"\x00\x36\x10\x36\x03\x10\x76\x03\x03", // <a c="x"><b c="x"/><b c="y"/></a>
		"\x00\x36\x76\x36\x00\x36\x03\x03",     // c="x" c="y" c="x" on one element, a nested a
		"\x00\x20\xf6\x03\x10\x20\xb6\x03\x03\x03", "\x00\x10\x08\x36\x03\x03", "\x36\x00\x03", "\x00\x3e\x03", "\x00\x36",
		"\x00\x00\x10\x08\x03\x03\x10\x08\x03\x03",                 // <a><a><b>x</b></a><b>x</b></a>: the outer a is captured last
		"\x00\x10\x08\x03\x00\x10\x08\x03\x03\x10\x08\x03\x03",     // b=x, a nested a with b=x, b=x again
		"\x00\x10\x08\x48\x03\x10\x20\x08\x03\x48\x03\x10\x03\x03", // "x"+"y" split, x<e>y</e>, an empty b
		"\x00\x08\x00\x08\x03\x08\x03",                             // text children around a nested a
		"A8\xffC",                                                  // <a>x, then a token that does not decode: the literal scan of 'x' has stopped looking
	} {
		f.Add([]byte(seed))
	}
	shapes := []string{
		"//a[@c='%s']", "/a/b[@c='%s']", "//*[@c='%s']", "/a//e['%s'=@c]", "count(//b[@c='%s'])",
		"//a[b='%s']", "/a/a[b='%s']", "//*['%s'=e]", "//a[text()='%s']", "/a/b[text()='%s']",
		"//a[b='%s'][1]", "//*[@c='%s'][2]", "count(//a[text()='%s'][1])",
	}
	vals := []string{"x", "y", "xy", "", "absent"}
	plans := make([][]*Plan, len(shapes))
	for i, shape := range shapes {
		for _, v := range vals {
			c, err := Parse(fmt.Sprintf(shape, v))
			if err != nil {
				f.Fatal(err)
			}
			p := PlanQuery(c)
			if p.probeKey == "" || p.rest != nil {
				f.Fatalf("%s: not a probe shape answered by the table alone", c.src)
			}
			plans[i] = append(plans[i], p)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raws := fuzzStream(data)
		for _, ps := range plans {
			b := tableBuilder{vals: make(map[string]*valueList), max: unbudgetedTableBytes}
			_, fillErr := runTokens(ps[0].fillProgram(), nil, raws, &b)
			table := b.table(0)
			held := len(table.vals)
			for _, p := range ps {
				want, err := runTokens(p.prog, p.c.lits, raws, nil)
				// A literal scan that decided a child or text atom early skips
				// tokens the fill has to read: there the fill alone may fail.
				if (err != nil) != (fillErr != nil) && (err != nil || p.prog.atoms[0].kind == atomAttr) {
					t.Fatalf("%s: scan error %v, fill error %v", p.c.src, err, fillErr)
				}
				if fillErr != nil {
					continue
				}
				got, n, _, _ := Bound{p, p.c.src, p.c.lits}.answer(context.Background(), nil, table, -1) // no rest: the store is not touched
				if !idsEqual(got, want) || n != len(want) {
					t.Fatalf("%s: table %v, scan %v", p.c.src, got, want)
				}
				if len(want) > 0 {
					held--
				}
			}
			// Attribute values and text children come from vals; under [N] a held
			// value may match nothing, and a child's string-value can be any
			// concatenation.
			if p := ps[0]; fillErr == nil && held != 0 && p.probePos == 0 && p.prog.atoms[0].kind != atomChild {
				t.Fatalf("%s: the table holds %d values no literal scan matches", ps[0].c.src, held)
			}
		}
	})
}

// planShapeExprs are FuzzPlanShape's queries beyond the differential corpus:
// literals inside function calls, one literal value repeated, and shapes
// only the tree evaluator runs.
var planShapeExprs = []string{
	`//a[contains(b, 'x')]/e`, `//a[starts-with(e, 'E')]/@id`, `//a[concat(b, 'y') = 'xy']`,
	`//a[substring(b, 1, 1) = 'x']`, `//a[normalize-space(b) = 'x']`, `string(//a[@id='1']/e)`,
	`count(//a[b='x'])`, `count(//a[@id='1'] | //a[@id='2'])`, `//a[@id='1' or @id='1']`,
	`//a[b='x'][e='x']`, `//a[@id='3']/..`, `//b[.='x']`, `//a[b!='x']`, `//a[@id > '2']`,
	`//a[b='x']/e | //a[@id='2']`, `concat('a', "b")`, `//a[c/d='y']/e`, `//a[b='x' and e='E1']/@id`,
}

// planShapeVocab is what a one-digit literal of FuzzPlanShape stands for:
// values the documents hold, so substituted literals match something.
var planShapeVocab = []string{"", "1", "2", "x", "y", "xyz", "E1", "z", "tail", "k"}

// withLits is src with its i-th string literal replaced by the i-th
// comma-separated field of set (a one-digit field names a planShapeVocab
// value; a missing field is empty), quoted by quote unless the value holds
// that quote.
func withLits(src, set string, quote byte) string {
	toks, err := lex(src)
	if err != nil {
		return src
	}
	fields := strings.Split(set, ",")
	var out strings.Builder
	from, i := 0, 0
	for _, t := range toks {
		if t.kind != tString {
			continue
		}
		var v string
		if i < len(fields) {
			v = fields[i]
		}
		i++
		if len(v) == 1 && v[0] >= '0' && v[0] <= '9' {
			v = planShapeVocab[v[0]-'0']
		}
		q := quote
		if strings.IndexByte(v, q) >= 0 {
			q ^= '\'' ^ '"'
			v = strings.ReplaceAll(v, string(q), "")
		}
		out.WriteString(src[from:t.pos])
		out.WriteByte(q)
		out.WriteString(v)
		out.WriteByte(q)
		from = t.pos + len(t.text) + 2
	}
	out.WriteString(src[from:])
	return out.String()
}

// FuzzPlanShape: a query of the differential corpus asked with two literal
// sets in turn — A, B, then A again, each three times so the value index
// marks, fills and hits — answers through its shape's one cached plan exactly
// what a fresh parse and plan of the same text answers on a store with no
// plan cache: ids, first, count and value, errors included.
func FuzzPlanShape(f *testing.F) {
	f.Add(uint16(12), uint8(0), "1", "2")                                          // diffExprs: //a[@id='1']
	f.Add(uint16(len(diffExprs)+20), uint8(1), "3", "0")                           // predExprs: //*[text()='x']
	f.Add(uint16(len(diffExprs)+len(predExprs)+8), uint8(0), "1,2", "2,1")         // //a[@id='1' or @id='1']
	f.Add(uint16(len(diffExprs)+len(predExprs)+17), uint8(2), "3,6", "6,3")        // two literals, two atoms
	f.Add(uint16(len(diffExprs)+len(predExprs)+15), uint8(1), "a,b", "it's,\"q\"") // scalars, both quotes
	f.Add(uint16(len(diffExprs)+len(predExprs)+10), uint8(0), "3", "")             // fallback, empty literal
	f.Add(uint16(len(diffExprs)+len(predExprs)+0), uint8(3), "3", "y")             // in a function call
	f.Add(uint16(len(diffExprs)+len(predExprs)+7), uint8(0), "1,2", "2,2")         // count of a union
	f.Add(uint16(len(diffExprs)+len(predExprs)+5), uint8(1), "1", "0")
	f.Add(uint16(1), uint8(0), `//a[@x="it's"]/b['"' = concat('x', "y")]`, "") // source in a: quotes in quotes             // string() of a probe
	queries := append(append(append([]string(nil), diffExprs...), predExprs...), planShapeExprs...)
	docs := []string{nestedXML, predXML}
	type pair struct{ cached, fresh *core.Store }
	var stores []pair
	for _, xml := range docs {
		toks, err := xmltok.ParseString(xml, xmltok.ParseOptions{StripWhitespace: true})
		if err != nil {
			f.Fatal(err)
		}
		var p pair
		for i, cfg := range []core.Config{{Mode: core.RangePartial}, {Mode: core.RangePartial, PlanCacheEntries: -1}} {
			s, err := core.Open(cfg)
			if err != nil {
				f.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Append(toks); err != nil {
				f.Fatal(err)
			}
			if i == 0 {
				p.cached = s
			} else {
				p.fresh = s
			}
		}
		stores = append(stores, p)
	}
	ctx := context.Background()
	answers := func(s *core.Store, src string) string {
		ids, err := QueryIDsCtx(ctx, s, src)
		first, ok, ferr := QueryFirstCtx(ctx, s, src)
		n, cerr := QueryCountCtx(ctx, s, src)
		v, verr := QueryValueCtx(ctx, s, src)
		return fmt.Sprint(ids, err, first, ok, ferr, n, cerr, v, verr)
	}
	f.Fuzz(func(t *testing.T, which uint16, quotes uint8, a, b string) {
		// Read as a query, a literal set is arbitrary source: where shapeKey
		// finds literals is where Parse does.
		if c, err := Parse(a); err == nil {
			if _, lits := shapeKey(nil, a, nil); !slices.Equal(lits, c.lits) {
				t.Fatalf("%q: shapeKey's literals %q, Parse's %q", a, lits, c.lits)
			}
		}
		q := queries[int(which)%len(queries)]
		if !strings.ContainsAny(q, `'"`) {
			return // no literal to substitute
		}
		// The corpus's own queries run over their own document; the rest over
		// predXML, whose values planShapeVocab names.
		st := stores[1]
		if int(which)%len(queries) < len(diffExprs) {
			st = stores[0]
		}
		qa, qb := withLits(q, a, "'\""[quotes&1]), withLits(q, b, "'\""[quotes>>1&1])
		for _, src := range []string{qa, qb, qa} {
			want := answers(st.fresh, src)
			for i := 0; i < 3; i++ {
				if got := answers(st.cached, src); got != want {
					t.Fatalf("%s (after %s): shape-cached plan %s, fresh plan %s", src, qa, got, want)
				}
			}
		}
	})
}

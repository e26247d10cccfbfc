package xpath

// Differential tests: the tree evaluator, the pushdown scan program and the
// lazy value index are pinned, id for id and in document order, against an
// oracle that evaluates every step literally (no `//` fusion; dedup map +
// sort at every step). Any divergence in step algebra, predicate positions,
// dedup or ordering shows up here.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/token"
	"repro/internal/workload"
	"repro/internal/xmltok"
)

// ---- oracle: every step literally, over the whole node set ----

func oracleStep(st step, input []*Node, d *Doc, lits []string) ([]*Node, error) {
	var out []*Node
	seen := map[*Node]bool{}
	for _, n := range input {
		cands := axisNodes(st.axis, n)
		cands = filterTest(cands, st.test)
		for _, pred := range st.preds {
			var kept []*Node
			for i, c := range cands {
				v, err := evalExpr(pred, evalCtx{doc: d, node: c, pos: i + 1, size: len(cands), lits: lits})
				if err != nil {
					return nil, err
				}
				if v.kind == vNumber {
					if int(v.n) == i+1 {
						kept = append(kept, c)
					}
				} else if v.toBool() {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
		for _, c := range cands {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].order < out[j].order })
	return out, nil
}

func oraclePath(e *pathExpr, d *Doc, lits []string) ([]*Node, error) {
	if e.base != nil {
		return nil, fmt.Errorf("oracle: variable base unsupported")
	}
	cur := []*Node{d.RootNode}
	for _, st := range e.steps {
		next, err := oracleStep(st, cur, d, lits)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func oracleNodes(e expr, d *Doc, lits []string) ([]*Node, error) {
	switch e := e.(type) {
	case *pathExpr:
		return oraclePath(e, d, lits)
	case *binaryExpr:
		if e.op != "|" {
			return nil, fmt.Errorf("oracle: unsupported operator %q", e.op)
		}
		l, err := oracleNodes(e.l, d, lits)
		if err != nil {
			return nil, err
		}
		r, err := oracleNodes(e.r, d, lits)
		if err != nil {
			return nil, err
		}
		seen := map[*Node]bool{}
		var merged []*Node
		for _, n := range append(append([]*Node{}, l...), r...) {
			if !seen[n] {
				seen[n] = true
				merged = append(merged, n)
			}
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].order < merged[j].order })
		return merged, nil
	default:
		return nil, fmt.Errorf("oracle: unsupported expression %T", e)
	}
}

func oracleIDs(t *testing.T, d *Doc, src string) []core.NodeID {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	ns, err := oracleNodes(c.root, d, c.lits)
	if err != nil {
		t.Fatalf("oracle %s: %v", src, err)
	}
	return nodeIDs(ns)
}

// nodeByID finds the view node of a store id below n.
func nodeByID(n *Node, id core.NodeID) *Node {
	if n.Kind != Root && n.ID == id {
		return n
	}
	for _, c := range slices.Concat(n.Attrs, n.Children) {
		if m := nodeByID(c, id); m != nil {
			return m
		}
	}
	return nil
}

func idsEqual(a, b []core.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- corpus ----

const nestedXML = `<r>
  <a id="1" k="v"><a id="2"><b n="x"/></a><b n="y"/><c/></a>
  <a id="3"><b n="z"/><b n="z2"/></a>
  <b n="top"/>
  <mixed>text<b n="m"/>tail</mixed>
  <!--note--><?pi data?>
</r>`

var diffExprs = []string{
	// pushdown-eligible shapes
	"/r", "/r/a", "//a", "//b", "//a/b", "//a//b", "/r/a/a/b", "//a/@id",
	"//@id", "//@n", "/r/*", "//*", "//a[@id='1']", "//a[@id='1']/b",
	"//a[@id='2']//b", "//a[1]", "//a[2]", "//a[1]/a[1]", "//b[1]", "//b[2]",
	"//a[@id='1'][1]", "//a[1][@id='1']", "//a[1][@id='3']", "//a[@k='v']/b/@n",
	"/r/a[2]/b", "//a/b | //a/c", "//b | //a", "//a/@id | //b/@n",
	"//missing", "//a[@id='9']", "/r/mixed/b", "/r/a/c | /r/b",
	// fallback shapes over the same documents
	"//b/..", "//b/parent::a", "//a/descendant::b", "//b/self::b",
	"//a[last()]", "//a[position()=2]", "//b[@n]", "//mixed/text()",
	"//a[b]", "//a[count(b)=2]", "//*/ancestor-or-self::*",
	"//b/preceding-sibling::*", "//a[1]/following-sibling::b",
	// a fallback union, and positions under `//` that must not fuse
	"//b/.. | //a[last()]", "//a//b[last()]", "//a[b][last()]/b[1]",
}

// predXML exercises predicates over children: the deciding child before and
// after the result step, no deciding child at all (decided at the end token),
// self-nested same-name elements, mixed content and several deciding children.
const predXML = `<r>
  <a id="1" c="k"><e>E1</e><b>x</b><c><d>y</d><e>hit</e></c><e>E2</e></a>
  <a id="2"><e>E3</e><c><d>n</d><e>miss</e></c></a>
  <a id="3"><b>x<i>y</i>z</b><a id="4"><b>x</b><e>E4</e><a id="6"><e>E7</e></a></a><e>E5</e></a>
  <a id="5"><b>q</b><b>xyz</b>tail<e>E6</e><c><d>y</d></c></a>
  <m>one<b>x</b>two</m>
</r>`

// splitTokens is a document no XML parser produces: string-values split
// across adjacent text tokens, which the scan must compare incrementally.
var splitTokens = []token.Token{
	token.Elem("r"),
	token.Elem("a"), token.Attr("id", "1"), token.EndAttr(),
	token.Elem("b"), token.TextTok("x"), token.TextTok("y"), token.Elem("i"), token.TextTok("z"), token.EndElem(), token.EndElem(),
	token.Elem("e"), token.TextTok("E"), token.TextTok("1"), token.EndElem(),
	token.EndElem(),
	token.Elem("a"), token.Elem("b"), token.TextTok("xy"), token.EndElem(), token.TextTok("x"), token.TextTok("xyz"), token.EndElem(),
	token.Elem("a"), token.Elem("b"), token.TextTok("xyz"), token.TextTok("z"), token.EndElem(), token.EndElem(),
	token.EndElem(),
}

var predExprs = []string{
	// result step before and after the deciding child; decided only at the end
	"//a[b='x']", "//a[b='x']/e", "//a['x'=b]/e", "//a[zz='x']/e", "//a[zz]", "//a[not(zz)]/e",
	"//a[b]", "//a[not(b)]", "//a[b]/e", "//a[c]//e", "//a[b='x']//e", "//a[b='x']//e[1]",
	// string-values: nested, mixed and split text
	"//a[b='xyz']", "//a[b='xy']", "//a[b='xyzz']", "//a[b='q']/e", "//a[e='E1']", "//a[e='E']",
	"//m[text()='two']", "//m[text()='one']/b", "//*[text()='x']", "//a[text()='tail']/b",
	"//a[text()='xyz']", "//*[text()='onetwo']",
	// combinators
	"//a[b='x' and @c]", "//a[b='x' and @c]/e", "//a[b='x' or @id='2']/e", "//a[@id='1' or @id='2']",
	"//a[not(@c)]/e", "//a[not(b='x')]", "//a[b='x' and not(c)]/e", "//a[@c or c]/e",
	"//a[not(b='x' or c)]", "//a[(b or c) and e]/@id", "//a[@id]", "//a[@c and @id='1']",
	// positions anywhere in the predicate list
	"//a[b][2]", "//a[2][b]", "//a[b='x'][1]/e", "//a[1][b='x']/e", "//a[b='x'][2]", "//e[2]",
	"//a[position()=2]", "//a[2=position()]", "//a[e][position()=1]/b", "/r/a[b='x'][2]/e",
	"/r/a[c][2][e]/e[1]", "//a[b][1][e][1]", "//a[c/d]", "//e[1]",
	// unions of conditional and unconditional branches over the same nodes
	"//a[b='x'] | //a", "//a[b='x']/e | //a/e", "//a[b='x']/e | //e", "//a[b='x']/e | //a[c]/e",
	"//a[b='x']/@id | //a[c]/@id | //a/e",
	// two content-predicate steps on one path
	"//a[b='x']/c[d='y']/e", "//a[c]/c[d='y']", "//a[e]/a[b='x']/a[e]/e", "//a[b]//a[b]/e",
	// final attribute step under an undecided frame
	"//a[b='x']/@id", "//a[e='E3']/@id", "//a[b='x']//@id", "//a[zz]/@id", "//a[c]/@c",
}

func diffStoreTokens(t *testing.T, toks []token.Token) (*core.Store, *Doc) {
	t.Helper()
	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Append(toks); err != nil {
		t.Fatal(err)
	}
	d, err := FromStore(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func diffStore(t *testing.T, xml string) (*core.Store, *Doc) {
	t.Helper()
	toks, err := xmltok.ParseString(xml, xmltok.ParseOptions{StripWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	return diffStoreTokens(t, toks)
}

// diffCorpus runs fn over every (document, expression) pair of the corpus.
func diffCorpus(t *testing.T, fn func(s *core.Store, d *Doc, src string)) {
	all := append(append([]string{}, diffExprs...), predExprs...)
	for _, xml := range []string{catalogXML, nestedXML, predXML} {
		s, d := diffStore(t, xml)
		for _, src := range all {
			fn(s, d, src)
		}
	}
	s, d := diffStoreTokens(t, splitTokens)
	for _, src := range all {
		fn(s, d, src)
	}
}

func TestDifferentialTreeVsOracle(t *testing.T) {
	diffCorpus(t, func(_ *core.Store, d *Doc, src string) {
		want := oracleIDs(t, d, src)
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		ns, err := c.Eval(d)
		if err != nil {
			t.Fatalf("eval %s: %v", src, err)
		}
		if got := nodeIDs(ns); !idsEqual(got, want) {
			t.Errorf("tree %s: got %v, want %v", src, got, want)
		}
	})
}

func TestDifferentialStoreVsOracle(t *testing.T) {
	diffCorpus(t, func(s *core.Store, d *Doc, src string) {
		want := oracleIDs(t, d, src)
		got, err := QueryIDsCtx(context.Background(), s, src)
		if err != nil {
			t.Fatalf("store %s: %v", src, err)
		}
		if !idsEqual(got, want) {
			t.Errorf("store %s: got %v, want %v", src, got, want)
		}
		// First/Exists agree with the head of the full result — for the
		// scan that is an early stop, possibly with candidates still held.
		first, ok, err := QueryFirstCtx(context.Background(), s, src)
		if err != nil {
			t.Fatalf("first %s: %v", src, err)
		}
		if ok != (len(want) > 0) || (ok && first != want[0]) {
			t.Errorf("first %s: got %v/%v, want head of %v", src, first, ok, want)
		}
		// count() of the path — of the fallback ones too, such as
		// count(//b/..) and count(//a[last()]) — is the same number through
		// either call.
		for _, q := range []string{src, "count(" + src + ")"} {
			n, err := QueryCountCtx(context.Background(), s, q)
			if err != nil || n != len(want) {
				t.Errorf("count %s: got %d (%v), want %d", q, n, err, len(want))
			}
		}
		if v, err := QueryValueCtx(context.Background(), s, "count("+src+")"); err != nil || v != strconv.Itoa(len(want)) {
			t.Errorf("value count(%s): got %q (%v), want %d", src, v, err, len(want))
		}
		// The value of a node set is the string-value of its first node.
		wantVal := ""
		if len(want) > 0 {
			wantVal = nodeByID(d.RootNode, want[0]).StringValue()
		}
		if v, err := QueryValueCtx(context.Background(), s, src); err != nil || v != wantVal {
			t.Errorf("value %s: got %q (%v), want %q", src, v, err, wantVal)
		}
	})
}

func TestDifferentialAnchored(t *testing.T) {
	// Anchor at each <a> element and run relative queries against the
	// subtree, comparing with the oracle over BuildDoc(ReadNode(anchor)).
	rel := []string{"a", "b", "a/b", "//b", "b[@n='y']", "@id", "//@n", "b[2]",
		"a[b='x']/e", "e[2]", "c[d='y']/e", "a[b]/@id", "//a[b='x']", "b[text()='x']", "//a[e][1]/e",
		"a[not(b)]//e | e", "//e[1]"}
	for _, xml := range []string{nestedXML, predXML} {
		s, _ := diffStore(t, xml)
		anchors, err := QueryIDsCtx(context.Background(), s, "//a | //a/@id")
		if err != nil {
			t.Fatal(err)
		}
		for _, anchor := range anchors {
			items, err := s.ReadNode(anchor)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := BuildDoc(items)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range rel {
				want := oracleIDs(t, sub, src)
				got, err := QueryNodeIDsCtx(context.Background(), s, anchor, src)
				if err != nil {
					t.Fatalf("anchored %s@%d: %v", src, anchor, err)
				}
				if !idsEqual(got, want) {
					t.Errorf("anchored %s@%d: got %v, want %v", src, anchor, got, want)
				}
			}
		}
	}
}

func TestPlannerClassification(t *testing.T) {
	pushdown := []string{
		"/r/a", "//a", "//a/b", "//a/@id", "//@id", "//a[@id='1']",
		"//a[1]", "//a/b | //a/c", "count(//a)", "//a[@k='v']/b/@n", "//*",
		"//a[b]", "count(//a[b])", "//a[b='x' and @c]", `//book[@id="bk101" or @id='bk102']`,
		"//book[position()=2]", "//purchase-order[customer='Globex'][1]/date",
		"//a[not(b) or text()='t']", "//a['x'=b][2]/@id",
	}
	fallback := []string{
		"//b/..", "//a[last()]", "//a[price>1]", "//mixed/text()",
		"//a/descendant::b", "//a[1] | //b/..", "//a[b/c='x']", "$v/a", "//a[@k=1]",
		"//a[position()<2]", "//a[.='x']", "//a[text()]", "//a[*='x']", "//a[b=c]",
		"//a[0]", "//a[1.5]", "//a[b='x' and 1]", "//a[count(b)=2]", "//a/@id[1]",
	}
	for _, src := range pushdown {
		c, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !PlanQuery(c).Pushdown() {
			t.Errorf("%s: expected pushdown plan", src)
		}
	}
	for _, src := range fallback {
		c, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if PlanQuery(c).Pushdown() {
			t.Errorf("%s: expected fallback plan", src)
		}
	}
	// The probe-shape column: which pushdown plans may ask the value index, and
	// under which key — the head (the steps up to the path's first predicate, a
	// lone equality atom) with the literal blanked and the atom's kind spelled.
	type probe struct {
		key  string
		pos  int  // [N] right after the atom
		rest bool // steps follow the head
	}
	probes := map[string]probe{
		"/a/b[@k='v']": {key: "vx:/a/b[@k"}, "a/b[@k='w']": {key: "vx:/a/b[@k"}, "//b[@k='v']": {key: "vx://b[@k"},
		"count(//b[@k='v'])": {key: "vx://b[@k"}, "//b['v'=@k]": {key: "vx://b[@k"}, "//b[@k='']": {key: "vx://b[@k"},
		"/a//*[@k='v']": {key: "vx:/a//*[@k"}, "//b[@j='v']": {key: "vx://b[@j"},
		// `*` and `//` are spelled out, so no two paths share a key
		"/*/b[@k='v']": {key: "vx:/*/b[@k"}, "/*/*[@k='v']": {key: "vx:/*/*[@k"}, "//*[@k='v']": {key: "vx://*[@k"},
		"/a/*//b[@k='v']": {key: "vx:/a/*//b[@k"}, "/a//*/b[@k='v']": {key: "vx:/a//*/b[@k"},
		// child and text atoms: the kind is part of the key
		"//b[c='v']": {key: "vx://b[c"}, "//b['v'=c]": {key: "vx://b[c"}, "//b[@c='v']": {key: "vx://b[@c"},
		"//b[text()='v']": {key: "vx://b[text()"}, "//b['v'=text()]": {key: "vx://b[text()"},
		// sources that differ only in the literal or after the atom share a key
		"//b[c='w'][1]": {key: "vx://b[c", pos: 1}, "//b[c='v'][2]/d": {key: "vx://b[c", pos: 2, rest: true},
		"//b[c='v'][position()=2]/d": {key: "vx://b[c", pos: 2, rest: true},
		"//b[c='v']//d":              {key: "vx://b[c", rest: true}, "//b[c='x']/d[e='y'][1]/@a": {key: "vx://b[c", rest: true},
		"count(//b[c='v'][1])": {key: "vx://b[c", pos: 1}, "//b[@k='v'][1]": {key: "vx://b[@k", pos: 1},
		"//b[@k='v'][1]/d/@a": {key: "vx://b[@k", pos: 1, rest: true}, "//b[@k='v']/@j": {key: "vx://b[@k", rest: true},
		"//b[@k='v']//@j": {key: "vx://b[@k", rest: true}, "count(//b[@k='v'][2])": {key: "vx://b[@k", pos: 2},
		"/r/*/o[c='v'][1]/d": {key: "vx:/r/*/o[c", pos: 1, rest: true}, "/a[@k='v']/b": {key: "vx:/a[@k", rest: true},
		"/a[@k='v']/b[c='w']": {key: "vx:/a[@k", rest: true},
		// everything else scans as before: a predicate before the atom, a boolean
		// tree around it, anything but one [N] after it on its step, a union
		"//b[@k]": {}, "//b[1][@k='v']": {}, "//b[1][c='v']": {}, "//b[@k='v' and @j='w']": {}, "//b[c='v' and @k='w']": {},
		"//b[not(@k='v')]": {}, "//b[not(c='v')]": {}, "//b[c='v'][d]": {}, "//b[c='v'][@k='w']": {}, "//b[c='v'][1][2]": {},
		"/a[@k]/b[c='v']": {}, "/a[1]/b[c='v']": {}, "//b[c]": {}, "//b[c='v' or c='w']": {},
		"//b[@k='v'] | //c": {}, "//b[@k='v'] | //b[@k='w']": {}, "//b[c='v'] | //b[c='w']": {}, "//b": {}, "//b/@k": {},
	}
	for src, want := range probes {
		c, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p := PlanQuery(c)
		if !p.Pushdown() || p.probeKey != want.key {
			t.Errorf("%s: pushdown=%v probe key %q, want %q", src, p.Pushdown(), p.probeKey, want.key)
		}
		if want.key == "" {
			continue
		}
		if p.probePos != want.pos || (p.rest != nil) != want.rest {
			t.Errorf("%s: [N] %d rest %v, want %d %v", src, p.probePos, p.rest != nil, want.pos, want.rest)
		}
		fill, a := p.fillProgram(), p.prog.atoms[0]
		if fa := fill.atoms[0]; !fa.has || a.has || fa.name != a.name || fa.kind != a.kind || len(fill.atoms) != 1 || fill.npreds != 1 || fill.nCounters != 0 {
			t.Errorf("%s: fill atom %+v of %d, %d predicates, scan atom %+v", src, fa, len(fill.atoms), fill.npreds, a)
		}
	}
	// Any anchored call scans, whatever the plan: pinned with the counters in
	// TestValueIndexCounters.
}

func TestPlanCacheCounters(t *testing.T) {
	s, _ := diffStore(t, catalogXML)
	const q = "//book/@id"
	for i := 0; i < 10; i++ {
		if _, err := QueryIDsCtx(context.Background(), s, q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PlanCacheHits < 9 {
		t.Errorf("plan cache hits = %d, want >= 9", st.PlanCacheHits)
	}
	if st.PlanCacheEntries == 0 || st.PlanCacheBytes == 0 {
		t.Errorf("plan cache empty: %+v", st)
	}
	if st.PushdownQueries < 10 {
		t.Errorf("pushdown queries = %d", st.PushdownQueries)
	}
	if _, err := QueryIDsCtx(context.Background(), s, "//book/.."); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FallbackQueries == 0 {
		t.Error("fallback counter not bumped")
	}
}

// TestUnseenLiteralReusesPlan: plans are keyed by shape. Once a query has
// been asked, the same query with other string literals — a point probe, a
// count, a fallback, two literals, either quote — plans nothing: no plan-cache
// miss, no new entry, and each answers for its own literals.
func TestUnseenLiteralReusesPlan(t *testing.T) {
	s, d := diffStore(t, catalogXML)
	ctx := context.Background()
	for _, c := range []struct{ seen, unseen string }{
		{"//book[@id='b1']/title", "//book[@id='b3']/title"},
		{"count(//book[author='Stevens'])", `count(//book[author="Buneman"])`},
		{"//book[title='Data on the Web']/..", "//book[title='TCP/IP Illustrated']/.."},
		{"//book[@id='b1' or author='x']", "//book[@id='b9' or author='Stevens']"},
	} {
		if _, err := QueryCountCtx(ctx, s, c.seen); err != nil {
			t.Fatalf("%s: %v", c.seen, err)
		}
		before := s.Stats()
		n, err := QueryCountCtx(ctx, s, c.unseen)
		if err != nil {
			t.Fatalf("%s: %v", c.unseen, err)
		}
		after := s.Stats()
		if after.PlanCacheMisses != before.PlanCacheMisses || after.PlanCacheEntries != before.PlanCacheEntries {
			t.Errorf("%s after %s: plan-cache misses %d -> %d, entries %d -> %d", c.unseen, c.seen,
				before.PlanCacheMisses, after.PlanCacheMisses, before.PlanCacheEntries, after.PlanCacheEntries)
		}
		q := c.unseen
		if !strings.HasPrefix(q, "count(") {
			q = "count(" + q + ")"
		}
		if want, err := Parse(q); err != nil {
			t.Fatal(err)
		} else if v, err := want.EvalValue(d); err != nil || v != strconv.Itoa(n) {
			t.Errorf("%s: %d, evaluator %s (%v)", c.unseen, n, v, err)
		}
	}
}

func TestPlanCacheEvictionUnderBudget(t *testing.T) {
	// A tiny memory budget forces the plan cache to evict while queries keep
	// answering correctly. Plans are keyed by shape, so each query differs in
	// a number, which stays in the shape, not only in its literal.
	s, err := core.Open(core.Config{Mode: core.RangePartial, MemoryBudget: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	toks, _ := xmltok.ParseString(catalogXML, xmltok.ParseOptions{StripWhitespace: true})
	if _, err := s.Append(toks); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		q := fmt.Sprintf("//book[@id='b%d'][%d]", i, i+1)
		if _, err := QueryIDsCtx(context.Background(), s, q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PlanCacheEvictions == 0 {
		t.Errorf("no plan-cache evictions under a %d-byte budget: %+v", 64<<10, st)
	}
	if st.PlanCacheBytes > 64<<10 {
		t.Errorf("plan cache holds %d bytes, budget is %d", st.PlanCacheBytes, 64<<10)
	}
	// Cached plans still answer after eviction churn.
	ids, err := QueryIDsCtx(context.Background(), s, "//book[@id='b2']")
	if err != nil || len(ids) != 1 {
		t.Fatalf("post-eviction query: %v %v", ids, err)
	}
}

func TestQueryCancellation(t *testing.T) {
	s, _ := diffStore(t, catalogXML)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := QueryIDsCtx(ctx, s, "//book"); err == nil {
		t.Error("cancelled pushdown query must fail")
	}
	if _, err := QueryIDsCtx(ctx, s, "//book/.."); err == nil {
		t.Error("cancelled fallback query must fail")
	}
}

func TestQueryValuePushdownCount(t *testing.T) {
	s, _ := diffStore(t, catalogXML)
	v, err := QueryValueCtx(context.Background(), s, "count(//book)")
	if err != nil || v != "3" {
		t.Fatalf("count pushdown: %q %v", v, err)
	}
	fallbacks := s.Stats().FallbackQueries
	v, err = QueryValueCtx(context.Background(), s, "//book[@id='b2']/title")
	if err != nil || v != "Advanced Programming" || s.Stats().FallbackQueries != fallbacks {
		t.Fatalf("path value pushdown: %q %v (fallbacks %d -> %d)", v, err, fallbacks, s.Stats().FallbackQueries)
	}
	v, err = QueryValueCtx(context.Background(), s, "string(//book[1]/title)")
	if err != nil || !strings.Contains(v, "TCP/IP") {
		t.Fatalf("value fallback: %q %v", v, err)
	}
}

// TestPushdownAllocations pins a cached-plan scan to O(results) allocations,
// not O(tokens): the benchmark's child-predicate expression, which holds and
// drops a candidate under almost every order, and its point query, which may
// allocate no more than it did before dead subtrees were skipped (4/run: the
// cache key, the closure, its captured result and the id slice). Asked a
// third time with no write in between the point query is a value-index hit:
// the cache key and nothing else the test can see.
func TestPushdownAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the executor pool is lossy under the race detector")
	}
	s, _ := diffStoreTokens(t, workload.New(2005).PurchaseOrdersDoc(1000))
	for _, c := range []struct {
		src   string
		max   float64
		write bool // a flush before every run starts a new generation: always first sight
	}{
		{"//purchase-order[customer='Globex'][1]/date", 17, true}, // the scan's ≤16 and the shape's marker
		// A hit with a rest: the plan-cache key, the result and its closure, the
		// subtree's bytes and the scan callback — is 5.
		{"//purchase-order[customer='Globex'][1]/date", 6, false},
		{"/purchase-orders/purchase-order[@id='PO-000500']", 5, true}, // the scan's 4 and the shape's marker
		{"/purchase-orders/purchase-order[@id='PO-000500']", 2, false},
	} {
		run := func() {
			if c.write {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if ids, err := QueryIDsCtx(context.Background(), s, c.src); err != nil || len(ids) != 1 {
				t.Fatalf("%s: %v %v", c.src, ids, err)
			}
		}
		run() // plan cached, executor pooled
		run() // table filled
		if got := testing.AllocsPerRun(20, run); got > c.max {
			t.Errorf("%s (write %v): %v allocs/run, want <= %v", c.src, c.write, got, c.max)
		}
	}
	// The plan is the shape's: a literal no run has asked, of the shape every
	// run above has, costs what the seen literal does (the last row).
	unseen := make([]string, 21)
	for i := range unseen {
		unseen[i] = fmt.Sprintf("/purchase-orders/purchase-order[@id='PO-%06d']", 100+i)
	}
	asked := 0
	got := testing.AllocsPerRun(20, func() {
		src := unseen[asked]
		asked++
		if ids, err := QueryIDsCtx(context.Background(), s, src); err != nil || len(ids) != 1 {
			t.Fatalf("%s: %v %v", src, ids, err)
		}
	})
	if got > 2 {
		t.Errorf("an unseen literal of a seen shape: %v allocs/run, want <= 2", got)
	}
}

// TestPushdownUnknownNameLatches: a scan that meets a name id its store's
// dictionary does not hold fails with the typed corruption error, and the
// store latches read-only even though the failure surfaced in the query
// layer, outside any store operation.
func TestPushdownUnknownNameLatches(t *testing.T) {
	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(xmltok.MustParse(`<a><b k="1">x</b><b k="2">y</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Dict().Load(nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := QueryCountCtx(ctx, s, `count(//b[@k='2'])`); !errors.Is(err, token.ErrUnknownName) {
		t.Fatalf("pushdown count: %v, want ErrUnknownName", err)
	}
	if ro, _ := s.ReadOnly(); !ro {
		t.Fatal("the store did not latch read-only")
	}
}

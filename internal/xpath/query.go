package xpath

// Store-level query execution: the keyed plan cache, the pushdown dispatch,
// and the one fallback onto the tree evaluator (Bound.fallback). These entry
// points are what the public API (axml), the server and XQuery route through.

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/token"
)

// Bound is a store's plan for a query's shape together with the query's own
// string literals: what CompileStore returns and what executes. The plan is
// shared by every literal of the shape and never copied; the literals are
// read where the plan names a slot.
type Bound struct {
	*Plan
	src  string
	lits []string
}

// CompileStore returns the store's cached plan for src's shape — src with
// its string literals blanked (shapeKey) — bound to src's literals, parsing
// and planning on a miss. One plan thus serves every literal of a shape:
// planning never reads a literal's value, and a number stays in the shape,
// since [N] is planned. Plans are immutable and safe for concurrent
// execution (they do not depend on variable values either); the cache is
// charged to the store's shared memory budget.
func CompileStore(s *core.Store, src string) (Bound, error) {
	return compileStore(s, src, nil)
}

// compileStore is CompileStore with the literals appended to lits: an entry
// point passes a buffer of its own, which, with the key built on the stack,
// keeps a hit free of allocations.
func compileStore(s *core.Store, src string, lits []string) (Bound, error) {
	var buf [128]byte
	key, lits := shapeKey(buf[:0], src, lits)
	pc := s.PlanCache()
	if v, ok := pc.GetBytes(key); ok {
		return Bound{v.(*Plan), src, lits}, nil
	}
	c, err := Parse(src)
	if err != nil {
		return Bound{}, err
	}
	p := PlanQuery(c)
	pc.Put(string(key), p, p.cost)
	return Bound{p, src, c.lits}, nil
}

// litBuf holds an entry point's literals: most queries have few.
type litBuf [4]string

// docFor materializes the navigational view for fallback evaluation: the
// whole store, or one anchored subtree.
func docFor(ctx context.Context, s *core.Store, anchor core.NodeID) (*Doc, error) {
	if anchor == core.InvalidNode {
		return FromStoreCtx(ctx, s)
	}
	items, err := s.ReadNodeCtx(ctx, anchor)
	if err != nil {
		return nil, err
	}
	return BuildDoc(items)
}

// pushdown is the one dispatch of a scan program: it collects at most limit
// matches (all when limit < 0) in document order, stops the scan once a
// positive limit is reached, and returns how many matches it saw. A
// whole-store probe-shape plan asks the lazy value index first.
func (b Bound) pushdown(ctx context.Context, s *core.Store, anchor core.NodeID, limit int) ([]core.NodeID, int, error) {
	s.QueryCounters().NotePushdown(b.Predicates())
	if b.probeKey != "" && anchor == core.InvalidNode && s.PlanCache() != nil {
		if ids, n, ok, err := b.probe(ctx, s, limit); ok {
			return ids, n, err
		}
	}
	var r struct { // one captured variable: one heap object per run
		ids []core.NodeID
		n   int
	}
	err := runProgram(ctx, s, b.prog, b.lits, anchor, func(id core.NodeID) bool {
		r.n++
		if limit != 0 {
			r.ids = append(r.ids, id)
		}
		return r.n != limit
	}, nil)
	return r.ids, r.n, err
}

// fallback evaluates the plan over the navigational view of the whole store,
// or of the anchor's subtree: the one way a store-level query reaches the
// tree evaluator, taken by whatever the scan cannot run.
func (b Bound) fallback(ctx context.Context, s *core.Store, anchor core.NodeID) (Value, error) {
	s.QueryCounters().NoteFallback()
	d, err := docFor(ctx, s, anchor)
	if err != nil {
		return Value{}, err
	}
	// The tree gets a copy of the literals: evalCtx escapes, and b must not
	// (notNodeSet).
	lits := slices.Clone(b.lits)
	return evalExpr(b.c.root, evalCtx{doc: d, node: d.RootNode, pos: 1, size: 1, lits: lits, st: &evalState{ctx: ctx}})
}

// nodes returns a fallback's node set, or the error for any other result.
func (b Bound) nodes(v Value) ([]*Node, error) {
	if v.kind != vNodeSet {
		return nil, b.notNodeSet(v.kind)
	}
	return v.nodes, nil
}

func (b Bound) notNodeSet(k valueKind) error {
	// A copy of the source: were b to escape, an entry point's literal buffer
	// (litBuf) would move to the heap on every call.
	return fmt.Errorf("xpath: %q evaluates to a %s, not a node set", strings.Clone(b.src), kindName(k))
}

// IDs executes the plan with its literals — as CompileStore returned it, or
// held by the caller — and returns matching node ids in document order: the
// whole store's, or the anchor's subtree's.
func (b Bound) IDs(ctx context.Context, s *core.Store, anchor core.NodeID) ([]core.NodeID, error) {
	if b.count {
		return nil, b.notNodeSet(vNumber)
	}
	if b.prog != nil {
		ids, _, err := b.pushdown(ctx, s, anchor, -1)
		return ids, err
	}
	v, err := b.fallback(ctx, s, anchor)
	if err != nil {
		return nil, err
	}
	ns, err := b.nodes(v)
	return nodeIDs(ns), err
}

// first executes the plan and returns the first match in document order; the
// pushdown scan stops at it.
func (b Bound) first(ctx context.Context, s *core.Store, anchor core.NodeID) (core.NodeID, bool, error) {
	if b.count {
		return core.InvalidNode, false, b.notNodeSet(vNumber)
	}
	if b.prog != nil {
		ids, n, err := b.pushdown(ctx, s, anchor, 1)
		if err != nil || n == 0 {
			return core.InvalidNode, false, err
		}
		return ids[0], true, nil
	}
	v, err := b.fallback(ctx, s, anchor)
	if err != nil {
		return core.InvalidNode, false, err
	}
	ns, err := b.nodes(v)
	for _, n := range ns {
		if n.Kind != Root {
			return n.ID, true, nil
		}
	}
	return core.InvalidNode, false, err
}

// nodeIDs maps view nodes to store ids, dropping the virtual root.
func nodeIDs(ns []*Node) []core.NodeID {
	out := make([]core.NodeID, 0, len(ns))
	for _, n := range ns {
		if n.Kind != Root {
			out = append(out, n.ID)
		}
	}
	return out
}

// QueryFirstCtx returns the first node matching src in document order,
// short-circuiting the scan at the first hit.
func QueryFirstCtx(ctx context.Context, s *core.Store, src string) (core.NodeID, bool, error) {
	var buf litBuf
	b, err := compileStore(s, src, buf[:0])
	if err != nil {
		return core.InvalidNode, false, err
	}
	return b.first(ctx, s, core.InvalidNode)
}

// QueryExistsCtx reports whether any node matches src, stopping the scan at
// the first match.
func QueryExistsCtx(ctx context.Context, s *core.Store, src string) (bool, error) {
	_, ok, err := QueryFirstCtx(ctx, s, src)
	return ok, err
}

// QueryCountCtx returns the number of nodes matching src. Accepts either a
// node-set expression or count() of one; the pushdown path counts inside the
// scan without collecting ids. On the fallback a number is the count, a node
// set its length.
func QueryCountCtx(ctx context.Context, s *core.Store, src string) (int, error) {
	var buf litBuf
	b, err := compileStore(s, src, buf[:0])
	if err != nil {
		return 0, err
	}
	if b.prog != nil {
		_, n, err := b.pushdown(ctx, s, core.InvalidNode, 0)
		return n, err
	}
	v, err := b.fallback(ctx, s, core.InvalidNode)
	if err != nil || v.kind == vNumber {
		return int(v.n), err
	}
	ns, err := b.nodes(v)
	return len(nodeIDs(ns)), err
}

// QueryValueCtx evaluates src and returns the XPath string-value of the
// result. A pushdown plan never builds the tree: count(path) is counted
// inside the scan, and a path's value is the string-value of its first match,
// read off that one subtree.
func QueryValueCtx(ctx context.Context, s *core.Store, src string) (string, error) {
	var buf litBuf
	b, err := compileStore(s, src, buf[:0])
	if err != nil {
		return "", err
	}
	if b.prog != nil && b.count {
		_, n, err := b.pushdown(ctx, s, core.InvalidNode, 0)
		return strconv.Itoa(n), err
	}
	if b.prog != nil {
		ids, n, err := b.pushdown(ctx, s, core.InvalidNode, 1)
		if err != nil || n == 0 {
			return "", err
		}
		return stringValue(ctx, s, ids[0])
	}
	v, err := b.fallback(ctx, s, core.InvalidNode)
	return v.toString(), err
}

// stringValue computes the XPath string-value of node id from its raw
// tokens: the value of a leaf or attribute, the concatenated descendant text
// of an element.
func stringValue(ctx context.Context, s *core.Store, id core.NodeID) (string, error) {
	var sb []byte
	var verr error
	d := s.Dict()
	err := s.ScanNodeRawCtx(ctx, id, func(nid core.NodeID, raw []byte) bool {
		k, _, val, _, err := d.View(raw)
		if err != nil {
			verr = err
			return false
		}
		if k == token.Text || nid == id {
			sb = append(sb, val...)
		}
		return k != token.BeginAttribute || nid != id
	})
	if err == nil {
		err = verr
	}
	return string(sb), err
}

// QueryNodeIDsCtx evaluates src against the subtree rooted at anchor (the
// anchor acting as the context node, as if the subtree were its own
// document) and returns matching ids in document order.
func QueryNodeIDsCtx(ctx context.Context, s *core.Store, anchor core.NodeID, src string) ([]core.NodeID, error) {
	var buf litBuf
	b, err := compileStore(s, src, buf[:0])
	if err != nil {
		return nil, err
	}
	return b.IDs(ctx, s, anchor)
}

package xpath

// Store-level query execution: the keyed plan cache, the pushdown dispatch,
// and the one fallback onto the tree evaluator (Plan.fallback). These entry
// points are what the public API (axml), the server and XQuery route through.

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/token"
)

// CompileStore returns the store's cached plan for src, parsing and planning
// on a miss. Plans are immutable and safe for concurrent execution; the
// cache is keyed by the expression source (plans do not depend on variable
// values) and charged to the store's shared memory budget.
func CompileStore(s *core.Store, src string) (*Plan, error) {
	key := "xp:" + src
	pc := s.PlanCache()
	if v, ok := pc.Get(key); ok {
		return v.(*Plan), nil
	}
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p := PlanQuery(c)
	pc.Put(key, p, p.cost)
	return p, nil
}

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
func (p *Plan) pushdown(ctx context.Context, s *core.Store, anchor core.NodeID, limit int) ([]core.NodeID, int, error) {
	s.QueryCounters().NotePushdown(p.Predicates())
	if p.probeKey != "" && anchor == core.InvalidNode && s.PlanCache() != nil {
		if ids, n, ok, err := p.probe(ctx, s, limit); ok {
			return ids, n, err
		}
	}
	var r struct { // one captured variable: one heap object per run
		ids []core.NodeID
		n   int
	}
	err := runProgram(ctx, s, p.prog, anchor, func(id core.NodeID) bool {
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
func (p *Plan) fallback(ctx context.Context, s *core.Store, anchor core.NodeID) (Value, error) {
	s.QueryCounters().NoteFallback()
	d, err := docFor(ctx, s, anchor)
	if err != nil {
		return Value{}, err
	}
	return evalExpr(p.c.root, evalCtx{doc: d, node: d.RootNode, pos: 1, size: 1, st: &evalState{ctx: ctx}})
}

// nodes returns a fallback's node set, or the error for any other result.
func (p *Plan) nodes(v Value) ([]*Node, error) {
	if v.kind != vNodeSet {
		return nil, p.notNodeSet(v.kind)
	}
	return v.nodes, nil
}

func (p *Plan) notNodeSet(k valueKind) error {
	return fmt.Errorf("xpath: %q evaluates to a %s, not a node set", p.c.src, kindName(k))
}

// IDs executes the plan — the store's cached one, or one its caller holds —
// and returns matching node ids in document order: the whole store's, or the
// anchor's subtree's.
func (p *Plan) IDs(ctx context.Context, s *core.Store, anchor core.NodeID) ([]core.NodeID, error) {
	if p.count {
		return nil, p.notNodeSet(vNumber)
	}
	if p.prog != nil {
		ids, _, err := p.pushdown(ctx, s, anchor, -1)
		return ids, err
	}
	v, err := p.fallback(ctx, s, anchor)
	if err != nil {
		return nil, err
	}
	ns, err := p.nodes(v)
	return nodeIDs(ns), err
}

// first executes the plan and returns the first match in document order; the
// pushdown scan stops at it.
func (p *Plan) first(ctx context.Context, s *core.Store, anchor core.NodeID) (core.NodeID, bool, error) {
	if p.count {
		return core.InvalidNode, false, p.notNodeSet(vNumber)
	}
	if p.prog != nil {
		ids, n, err := p.pushdown(ctx, s, anchor, 1)
		if err != nil || n == 0 {
			return core.InvalidNode, false, err
		}
		return ids[0], true, nil
	}
	v, err := p.fallback(ctx, s, anchor)
	if err != nil {
		return core.InvalidNode, false, err
	}
	ns, err := p.nodes(v)
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
	p, err := CompileStore(s, src)
	if err != nil {
		return core.InvalidNode, false, err
	}
	return p.first(ctx, s, core.InvalidNode)
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
	p, err := CompileStore(s, src)
	if err != nil {
		return 0, err
	}
	if p.prog != nil {
		_, n, err := p.pushdown(ctx, s, core.InvalidNode, 0)
		return n, err
	}
	v, err := p.fallback(ctx, s, core.InvalidNode)
	if err != nil || v.kind == vNumber {
		return int(v.n), err
	}
	ns, err := p.nodes(v)
	return len(nodeIDs(ns)), err
}

// QueryValueCtx evaluates src and returns the XPath string-value of the
// result. A pushdown plan never builds the tree: count(path) is counted
// inside the scan, and a path's value is the string-value of its first match,
// read off that one subtree.
func QueryValueCtx(ctx context.Context, s *core.Store, src string) (string, error) {
	p, err := CompileStore(s, src)
	if err != nil {
		return "", err
	}
	if p.prog != nil && p.count {
		_, n, err := p.pushdown(ctx, s, core.InvalidNode, 0)
		return strconv.Itoa(n), err
	}
	if p.prog != nil {
		ids, n, err := p.pushdown(ctx, s, core.InvalidNode, 1)
		if err != nil || n == 0 {
			return "", err
		}
		return stringValue(ctx, s, ids[0])
	}
	v, err := p.fallback(ctx, s, core.InvalidNode)
	return v.toString(), err
}

// stringValue computes the XPath string-value of node id from its raw
// tokens: the value of a leaf or attribute, the concatenated descendant text
// of an element.
func stringValue(ctx context.Context, s *core.Store, id core.NodeID) (string, error) {
	var sb []byte
	var verr error
	err := s.ScanNodeRawCtx(ctx, id, func(nid core.NodeID, raw []byte) bool {
		k, _, val, _, err := token.View(raw)
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
	p, err := CompileStore(s, src)
	if err != nil {
		return nil, err
	}
	return p.IDs(ctx, s, anchor)
}

package xpath

// Store-level query execution: the keyed plan cache, the pushdown dispatch,
// and the bounded-fan-out parallel fallback. These entry points are what the
// public API (axml), the server and XQuery route through.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

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

func (p *Plan) notNodeSet() error {
	return fmt.Errorf("xpath: %q evaluates to a number, not a node set", p.c.src)
}

// IDs executes the plan — the store's cached one, or one its caller holds —
// and returns matching node ids in document order: the whole store's, or the
// anchor's subtree's.
func (p *Plan) IDs(ctx context.Context, s *core.Store, anchor core.NodeID) ([]core.NodeID, error) {
	if p.count {
		return nil, p.notNodeSet()
	}
	if p.prog != nil {
		ids, _, err := p.pushdown(ctx, s, anchor, -1)
		return ids, err
	}
	s.QueryCounters().NoteFallback()
	d, err := docFor(ctx, s, anchor)
	if err != nil {
		return nil, err
	}
	var nodes []*Node
	if len(p.unionPaths) >= 2 {
		nodes, err = evalUnionParallel(ctx, d, p.unionPaths)
	} else {
		nodes, err = p.c.EvalCtx(ctx, d)
	}
	if err != nil {
		return nil, err
	}
	return nodeIDs(nodes), nil
}

// first executes the plan and returns the first match in document order,
// pulling lazily so both the pushdown scan and the streaming fallback stop
// at the first hit.
func (p *Plan) first(ctx context.Context, s *core.Store, anchor core.NodeID) (core.NodeID, bool, error) {
	if p.count {
		return core.InvalidNode, false, p.notNodeSet()
	}
	if p.prog != nil {
		ids, n, err := p.pushdown(ctx, s, anchor, 1)
		if err != nil || n == 0 {
			return core.InvalidNode, false, err
		}
		return ids[0], true, nil
	}
	s.QueryCounters().NoteFallback()
	d, err := docFor(ctx, s, anchor)
	if err != nil {
		return core.InvalidNode, false, err
	}
	if pe, ok := p.c.root.(*pathExpr); ok {
		it, err := pathIter(pe, evalCtx{doc: d, node: d.RootNode, pos: 1, size: 1, st: &evalState{ctx: ctx}})
		if err != nil {
			return core.InvalidNode, false, err
		}
		for {
			n, err := it.next()
			if err != nil {
				return core.InvalidNode, false, err
			}
			if n == nil {
				return core.InvalidNode, false, nil
			}
			if n.Kind != Root {
				return n.ID, true, nil
			}
		}
	}
	nodes, err := p.c.EvalCtx(ctx, d)
	if err != nil {
		return core.InvalidNode, false, err
	}
	for _, n := range nodes {
		if n.Kind != Root {
			return n.ID, true, nil
		}
	}
	return core.InvalidNode, false, nil
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

// unionFanOut bounds the number of union branches evaluated concurrently in
// the parallel fallback.
const unionFanOut = 4

// evalUnionParallel evaluates independent union branches concurrently over
// one shared immutable Doc and merges the results with the union operator's
// dedup + document-order semantics.
func evalUnionParallel(ctx context.Context, d *Doc, paths []*pathExpr) ([]*Node, error) {
	results := make([][]*Node, len(paths))
	errs := make([]error, len(paths))
	sem := make(chan struct{}, unionFanOut)
	var wg sync.WaitGroup
	for i, pe := range paths {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pe *pathExpr) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = evalPath(pe, evalCtx{doc: d, node: d.RootNode, pos: 1, size: 1, st: &evalState{ctx: ctx}})
		}(i, pe)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	seen := map[*Node]bool{}
	var merged []*Node
	for _, ns := range results {
		for _, n := range ns {
			if !seen[n] {
				seen[n] = true
				merged = append(merged, n)
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].order < merged[j].order })
	return merged, nil
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
// node-set expression or count(path) directly; the pushdown path counts
// inside the scan without collecting ids.
func QueryCountCtx(ctx context.Context, s *core.Store, src string) (int, error) {
	p, err := CompileStore(s, src)
	if err != nil {
		return 0, err
	}
	if p.prog != nil {
		_, n, err := p.pushdown(ctx, s, core.InvalidNode, 0)
		return n, err
	}
	if p.count {
		s.QueryCounters().NoteFallback()
		d, err := FromStoreCtx(ctx, s)
		if err != nil {
			return 0, err
		}
		v, err := p.c.EvalValueCtx(ctx, d)
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(v)
	}
	ids, err := p.IDs(ctx, s, core.InvalidNode)
	if err != nil {
		return 0, err
	}
	return len(ids), nil
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
	s.QueryCounters().NoteFallback()
	d, err := FromStoreCtx(ctx, s)
	if err != nil {
		return "", err
	}
	return p.c.EvalValueCtx(ctx, d)
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

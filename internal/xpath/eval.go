package xpath

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Evaluation. XPath 1.0 Value model: node-set, string, number, boolean.

type Value struct {
	nodes []*Node // nil unless node-set
	isSet bool
	s     string
	n     float64
	b     bool
	kind  valueKind
}

type valueKind int

const (
	vNodeSet valueKind = iota
	vString
	vNumber
	vBool
)

func nodeSet(ns []*Node) Value { return Value{kind: vNodeSet, isSet: true, nodes: ns} }
func str(s string) Value       { return Value{kind: vString, s: s} }
func num(n float64) Value      { return Value{kind: vNumber, n: n} }
func boolean(b bool) Value     { return Value{kind: vBool, b: b} }

func (v Value) toBool() bool {
	switch v.kind {
	case vNodeSet:
		return len(v.nodes) > 0
	case vString:
		return v.s != ""
	case vNumber:
		return v.n != 0
	default:
		return v.b
	}
}

func (v Value) toString() string {
	switch v.kind {
	case vNodeSet:
		if len(v.nodes) == 0 {
			return ""
		}
		return v.nodes[0].StringValue()
	case vNumber:
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case vBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return v.s
	}
}

func (v Value) toNumber() float64 {
	switch v.kind {
	case vNodeSet, vString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.toString()), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case vBool:
		if v.b {
			return 1
		}
		return 0
	default:
		return v.n
	}
}

type evalCtx struct {
	doc  *Doc
	node *Node
	pos  int // 1-based position within the current predicate's node list
	size int
	vars Vars
	lits []string // the string literals, by slot (literalExpr)
	st   *evalState
}

// evalState is the per-evaluation mutable state shared down the recursion:
// the operation context and a step counter that amortizes cancellation
// checks to one ctx.Err() poll every evalCheckSteps units of work.
type evalState struct {
	ctx   context.Context
	steps int
}

const evalCheckSteps = 1024

func (st *evalState) tick() error {
	if st == nil || st.ctx == nil {
		return nil
	}
	st.steps++
	if st.steps%evalCheckSteps == 0 {
		return st.ctx.Err()
	}
	return nil
}

// Eval evaluates the compiled expression against the document and returns
// the resulting node set in document order. Non-node-set results are
// reported as an error (use EvalValue for those).
func (c *Compiled) Eval(d *Doc) ([]*Node, error) {
	return c.EvalCtx(context.Background(), d)
}

// EvalCtx is Eval under a context: the evaluation loops poll ctx every
// evalCheckSteps units of work, so a deadline or cancellation cuts a long
// evaluation short.
func (c *Compiled) EvalCtx(ctx context.Context, d *Doc) ([]*Node, error) {
	v, err := evalExpr(c.root, evalCtx{doc: d, node: d.RootNode, pos: 1, size: 1, lits: c.lits, st: &evalState{ctx: ctx}})
	if err != nil {
		return nil, err
	}
	if v.kind != vNodeSet {
		return nil, fmt.Errorf("xpath: %q evaluates to a %s, not a node set", c.src, kindName(v.kind))
	}
	return v.nodes, nil
}

// EvalValue evaluates the expression and returns the result as a string.
func (c *Compiled) EvalValue(d *Doc) (string, error) {
	v, err := evalExpr(c.root, evalCtx{doc: d, node: d.RootNode, pos: 1, size: 1, lits: c.lits})
	if err != nil {
		return "", err
	}
	return v.toString(), nil
}

// Query parses and evaluates in one call.
func Query(d *Doc, src string) ([]*Node, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Eval(d)
}

// QueryIDs evaluates against a store and returns matching node ids in
// document order — the bridge from queries to XUpdate targets.
func QueryIDs(s *core.Store, src string) ([]core.NodeID, error) {
	return QueryIDsCtx(context.Background(), s, src)
}

// QueryIDsCtx is QueryIDs under a caller deadline. It routes through the
// store's plan cache: pushdown-eligible expressions execute as a single raw
// token scan; everything else falls back to the tree evaluator over a Doc.
func QueryIDsCtx(ctx context.Context, s *core.Store, src string) ([]core.NodeID, error) {
	var buf litBuf
	b, err := compileStore(s, src, buf[:0])
	if err != nil {
		return nil, err
	}
	return b.IDs(ctx, s, core.InvalidNode)
}

func kindName(k valueKind) string {
	switch k {
	case vNodeSet:
		return "node-set"
	case vString:
		return "string"
	case vNumber:
		return "number"
	default:
		return "boolean"
	}
}

func evalExpr(e expr, ctx evalCtx) (Value, error) {
	switch e := e.(type) {
	case *literalExpr:
		return str(ctx.lits[e.slot]), nil
	case *numberExpr:
		return num(e.v), nil
	case *negExpr:
		v, err := evalExpr(e.e, ctx)
		if err != nil {
			return Value{}, err
		}
		return num(-v.toNumber()), nil
	case *binaryExpr:
		return evalBinary(e, ctx)
	case *funcExpr:
		return evalFunc(e, ctx)
	case *pathExpr:
		ns, err := evalPath(e, ctx)
		if err != nil {
			return Value{}, err
		}
		return nodeSet(ns), nil
	case *varExpr:
		return evalVar(e, ctx)
	default:
		return Value{}, fmt.Errorf("xpath: unknown expression %T", e)
	}
}

func evalBinary(e *binaryExpr, ctx evalCtx) (Value, error) {
	l, err := evalExpr(e.l, ctx)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "or":
		if l.toBool() {
			return boolean(true), nil
		}
		r, err := evalExpr(e.r, ctx)
		if err != nil {
			return Value{}, err
		}
		return boolean(r.toBool()), nil
	case "and":
		if !l.toBool() {
			return boolean(false), nil
		}
		r, err := evalExpr(e.r, ctx)
		if err != nil {
			return Value{}, err
		}
		return boolean(r.toBool()), nil
	}
	r, err := evalExpr(e.r, ctx)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "+":
		return num(l.toNumber() + r.toNumber()), nil
	case "-":
		return num(l.toNumber() - r.toNumber()), nil
	case "|":
		if l.kind != vNodeSet || r.kind != vNodeSet {
			return Value{}, fmt.Errorf("xpath: '|' needs node sets on both sides")
		}
		return nodeSet(docOrder(slices.Concat(l.nodes, r.nodes))), nil
	}
	return boolean(compare(l, r, e.op)), nil
}

// compare implements XPath comparison semantics: node-sets compare
// existentially against the other operand.
func compare(l, r Value, op string) bool {
	if l.kind == vNodeSet {
		for _, n := range l.nodes {
			if compare(str(n.StringValue()), r, op) {
				return true
			}
		}
		return false
	}
	if r.kind == vNodeSet {
		for _, n := range r.nodes {
			if compare(l, str(n.StringValue()), op) {
				return true
			}
		}
		return false
	}
	switch op {
	case "=", "!=":
		var eq bool
		if l.kind == vNumber || r.kind == vNumber {
			eq = l.toNumber() == r.toNumber()
		} else if l.kind == vBool || r.kind == vBool {
			eq = l.toBool() == r.toBool()
		} else {
			eq = l.toString() == r.toString()
		}
		if op == "=" {
			return eq
		}
		return !eq
	default:
		a, b := l.toNumber(), r.toNumber()
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		case ">=":
			return a >= b
		}
	}
	return false
}

func evalFunc(e *funcExpr, ctx evalCtx) (Value, error) {
	arg := func(i int) (Value, error) {
		if i >= len(e.args) {
			return Value{}, fmt.Errorf("xpath: %s() missing argument %d", e.name, i+1)
		}
		return evalExpr(e.args[i], ctx)
	}
	switch e.name {
	case "position":
		return num(float64(ctx.pos)), nil
	case "last":
		return num(float64(ctx.size)), nil
	case "true":
		return boolean(true), nil
	case "false":
		return boolean(false), nil
	case "count":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.kind != vNodeSet {
			return Value{}, fmt.Errorf("xpath: count() needs a node set")
		}
		return num(float64(len(v.nodes))), nil
	case "not":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		return boolean(!v.toBool()), nil
	case "name":
		if len(e.args) == 0 {
			return str(ctx.node.Name), nil
		}
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.kind == vNodeSet && len(v.nodes) > 0 {
			return str(v.nodes[0].Name), nil
		}
		return str(""), nil
	case "string":
		if len(e.args) == 0 {
			return str(ctx.node.StringValue()), nil
		}
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		return str(v.toString()), nil
	case "number":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		return num(v.toNumber()), nil
	case "contains":
		a, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		b, err := arg(1)
		if err != nil {
			return Value{}, err
		}
		return boolean(strings.Contains(a.toString(), b.toString())), nil
	case "starts-with":
		a, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		b, err := arg(1)
		if err != nil {
			return Value{}, err
		}
		return boolean(strings.HasPrefix(a.toString(), b.toString())), nil
	case "string-length":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		return num(float64(len(v.toString()))), nil
	case "distinct-values":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.kind != vNodeSet {
			return Value{}, fmt.Errorf("xpath: distinct-values() needs a node set")
		}
		seen := map[string]bool{}
		var out []*Node
		for _, n := range v.nodes {
			sv := n.StringValue()
			if !seen[sv] {
				seen[sv] = true
				out = append(out, n)
			}
		}
		return nodeSet(out), nil
	case "sum":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		if v.kind != vNodeSet {
			return Value{}, fmt.Errorf("xpath: sum() needs a node set")
		}
		total := 0.0
		for _, n := range v.nodes {
			total += str(n.StringValue()).toNumber()
		}
		return num(total), nil
	case "floor":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		return num(math.Floor(v.toNumber())), nil
	case "ceiling":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		return num(math.Ceil(v.toNumber())), nil
	case "round":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		// XPath rounds halves toward positive infinity: round(-2.5) = -2.
		return num(math.Floor(v.toNumber() + 0.5)), nil
	case "concat":
		if len(e.args) < 2 {
			return Value{}, fmt.Errorf("xpath: concat() needs at least two arguments")
		}
		var sb strings.Builder
		for i := range e.args {
			v, err := arg(i)
			if err != nil {
				return Value{}, err
			}
			sb.WriteString(v.toString())
		}
		return str(sb.String()), nil
	case "substring":
		v, err := arg(0)
		if err != nil {
			return Value{}, err
		}
		startV, err := arg(1)
		if err != nil {
			return Value{}, err
		}
		s := v.toString()
		// XPath substring is 1-based with rounding semantics.
		start := int(math.Round(startV.toNumber()))
		end := len(s) + 1
		if len(e.args) > 2 {
			lenV, err := arg(2)
			if err != nil {
				return Value{}, err
			}
			end = start + int(math.Round(lenV.toNumber()))
		}
		if start < 1 {
			start = 1
		}
		if end > len(s)+1 {
			end = len(s) + 1
		}
		if start >= end || start > len(s) {
			return str(""), nil
		}
		return str(s[start-1 : end-1]), nil
	case "normalize-space":
		var s string
		if len(e.args) == 0 {
			s = ctx.node.StringValue()
		} else {
			v, err := arg(0)
			if err != nil {
				return Value{}, err
			}
			s = v.toString()
		}
		return str(strings.Join(strings.Fields(s), " ")), nil
	default:
		return Value{}, fmt.Errorf("xpath: unknown function %s()", e.name)
	}
}

// evalPath evaluates a location path one whole node set per step, after
// fusing the `//` expansion pairs mergeSteps may fuse.
func evalPath(e *pathExpr, ctx evalCtx) ([]*Node, error) {
	var ns []*Node
	switch {
	case e.base != nil:
		v, err := evalExpr(e.base, ctx)
		if err != nil {
			return nil, err
		}
		if !v.IsNodeSet() {
			return nil, fmt.Errorf("xpath: path step applied to a non-node value")
		}
		ns = v.nodes
	case e.absolute:
		ns = []*Node{ctx.doc.RootNode}
	default:
		ns = []*Node{ctx.node}
	}
	for _, st := range mergeSteps(e.steps) {
		var err error
		if ns, err = evalStep(st, ns, ctx); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// evalStep applies one step to every input node — axis, node test and
// predicates — and returns the union in document order.
func evalStep(st step, input []*Node, ctx evalCtx) ([]*Node, error) {
	var out []*Node
	for _, n := range input {
		if err := ctx.st.tick(); err != nil {
			return nil, err
		}
		cands, err := stepCandidates(st, n, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, cands...)
	}
	return docOrder(out), nil
}

// docOrder sorts ns into document order and drops duplicates, which the sort
// puts side by side. A sorted input costs one pass.
func docOrder(ns []*Node) []*Node {
	slices.SortFunc(ns, func(a, b *Node) int { return a.order - b.order })
	return slices.Compact(ns)
}

// stepCandidates computes one input node's survivors of a step: the axis,
// the node test, then each predicate over the survivors of the one before,
// positions counted in axis order.
func stepCandidates(st step, n *Node, ctx evalCtx) ([]*Node, error) {
	cands := axisNodes(st.axis, n)
	cands = filterTest(cands, st.test)
	for _, pred := range st.preds {
		var kept []*Node
		for i, c := range cands {
			if err := ctx.st.tick(); err != nil {
				return nil, err
			}
			v, err := evalExpr(pred, evalCtx{doc: ctx.doc, node: c, pos: i + 1, size: len(cands), vars: ctx.vars, lits: ctx.lits, st: ctx.st})
			if err != nil {
				return nil, err
			}
			// A bare number predicate means position()=N.
			if v.kind == vNumber {
				if int(v.n) == i+1 {
					kept = append(kept, c)
					break // positions are unique; no later candidate matches
				}
			} else if v.toBool() {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	return cands, nil
}

// mergeSteps fuses `//` expansion pairs (descendant-or-self::node() then
// child::T) into one descendant::T step where T's predicates are
// position-free, so the path never enumerates the node set the expansion
// implies. A positional predicate inhibits the fusion: it counts among the
// children of one parent, not among all descendants.
func mergeSteps(steps []step) []step {
	out := make([]step, 0, len(steps))
	for i := 0; i < len(steps); i++ {
		st := steps[i]
		if st.axis == axDescendantOrSelf && st.test.any && len(st.preds) == 0 && i+1 < len(steps) {
			nx := steps[i+1]
			if nx.axis == axChild && predsPositionFree(nx.preds) {
				nx.axis = axDescendant
				out = append(out, nx)
				i++
				continue
			}
		}
		out = append(out, st)
	}
	return out
}

func predsPositionFree(preds []expr) bool {
	for _, p := range preds {
		if _, bare := p.(*numberExpr); bare {
			return false
		}
		if usesPosition(p) {
			return false
		}
	}
	return true
}

// usesPosition reports whether e references position()/last() in the
// current predicate's context (nested paths' own predicates establish a new
// context and are excluded).
func usesPosition(e expr) bool {
	switch e := e.(type) {
	case *funcExpr:
		if e.name == "position" || e.name == "last" {
			return true
		}
		for _, a := range e.args {
			if usesPosition(a) {
				return true
			}
		}
	case *binaryExpr:
		return usesPosition(e.l) || usesPosition(e.r)
	case *negExpr:
		return usesPosition(e.e)
	case *pathExpr:
		return e.base != nil && usesPosition(e.base)
	}
	return false
}

func axisNodes(ax axisKind, n *Node) []*Node {
	switch ax {
	case axChild:
		return childAxis(n)
	case axDescendant:
		return descendantAxis(n)
	case axDescendantOrSelf:
		return append([]*Node{n}, descendantAxis(n)...)
	case axParent:
		return parentAxis(n)
	case axAncestor:
		return ancestorAxis(n)
	case axAncestorOrSelf:
		return append([]*Node{n}, ancestorAxis(n)...)
	case axSelf:
		return []*Node{n}
	case axFollowingSibling:
		return followingSiblingAxis(n)
	case axPrecedingSibling:
		return precedingSiblingAxis(n)
	case axAttribute:
		return attributeAxis(n)
	}
	return nil
}

func filterTest(ns []*Node, t nodeTest) []*Node {
	var out []*Node
	for _, n := range ns {
		if t.any {
			// node() matches everything, including the virtual root — the
			// expansion of // relies on descendant-or-self::node() keeping
			// the root as a context for the following child step.
			out = append(out, n)
			continue
		}
		if n.Kind != t.kind {
			continue
		}
		if t.name != "" && t.name != "*" && n.Name != t.name {
			continue
		}
		out = append(out, n)
	}
	return out
}

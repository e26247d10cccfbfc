package xpath

import (
	"context"
	"fmt"
)

// Variable support. XPath expressions may reference $variables; bindings
// are supplied at evaluation time. This is the hook the XQuery FLWOR layer
// builds on.

// Exported Value constructors and accessors (the internal representation
// stays opaque).

// NodeSetValue wraps a node set.
func NodeSetValue(ns []*Node) Value { return nodeSet(ns) }

// StringValue wraps a string.
func StringValue(s string) Value { return str(s) }

// NumberValue wraps a number.
func NumberValue(f float64) Value { return num(f) }

// BoolValue wraps a boolean.
func BoolValue(b bool) Value { return boolean(b) }

// IsNodeSet reports whether the value is a node set.
func (v Value) IsNodeSet() bool { return v.kind == vNodeSet }

// Nodes returns the node set (nil for scalars).
func (v Value) Nodes() []*Node { return v.nodes }

// String implements fmt.Stringer with XPath string-value semantics.
func (v Value) String() string { return v.toString() }

// Bool returns the effective boolean value.
func (v Value) Bool() bool { return v.toBool() }

// Number returns the numeric value (NaN if not convertible).
func (v Value) Number() float64 { return v.toNumber() }

// Vars is a set of variable bindings.
type Vars map[string]Value

// varExpr is a $name reference in the AST.
type varExpr struct{ name string }

// EvalWith evaluates the compiled expression with variable bindings,
// returning the typed result.
func (c *Compiled) EvalWith(d *Doc, vars Vars) (Value, error) {
	return c.EvalWithContext(d, d.RootNode, vars)
}

// EvalWithContext evaluates with bindings against an explicit context node
// (relative paths start there).
func (c *Compiled) EvalWithContext(d *Doc, ctx *Node, vars Vars) (Value, error) {
	return evalExpr(c.root, evalCtx{doc: d, node: ctx, pos: 1, size: 1, vars: vars, lits: c.lits})
}

// EvalWithCtx is EvalWithContext under an operation context: evaluation
// loops poll ctx so deadlines and cancellation cut long evaluations short.
func (c *Compiled) EvalWithCtx(octx context.Context, d *Doc, ctx *Node, vars Vars) (Value, error) {
	return evalExpr(c.root, evalCtx{doc: d, node: ctx, pos: 1, size: 1, vars: vars, lits: c.lits, st: &evalState{ctx: octx}})
}

// FreeVars returns the names of the $variables the expression references,
// in first-occurrence order. The XQuery layer uses this to detect FLWOR
// clauses whose domains are tuple-independent and can be hoisted out of the
// tuple loop: evaluated once, not once per tuple.
func (c *Compiled) FreeVars() []string {
	var out []string
	collectVars(c.root, map[string]bool{}, &out)
	return out
}

func collectVars(e expr, seen map[string]bool, out *[]string) {
	switch e := e.(type) {
	case *varExpr:
		if !seen[e.name] {
			seen[e.name] = true
			*out = append(*out, e.name)
		}
	case *binaryExpr:
		collectVars(e.l, seen, out)
		collectVars(e.r, seen, out)
	case *negExpr:
		collectVars(e.e, seen, out)
	case *funcExpr:
		for _, a := range e.args {
			collectVars(a, seen, out)
		}
	case *pathExpr:
		if e.base != nil {
			collectVars(e.base, seen, out)
		}
		for _, st := range e.steps {
			for _, p := range st.preds {
				collectVars(p, seen, out)
			}
		}
	}
}

func evalVar(e *varExpr, ctx evalCtx) (Value, error) {
	v, ok := ctx.vars[e.name]
	if !ok {
		return Value{}, fmt.Errorf("xpath: unbound variable $%s", e.name)
	}
	return v, nil
}

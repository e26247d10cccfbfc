package xquery

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/token"
	"repro/internal/xmltok"
	"repro/internal/xpath"
)

// Evaluation: FLWOR tuples, constructor materialization, node copying.

// qenv is the evaluation environment: the operation context (polled between
// FLWOR tuples so cancellation and deadlines cut long queries short) and the
// shared navigational view.
type qenv struct {
	ctx context.Context
	d   *xpath.Doc
}

func (q qenv) check() error {
	if q.ctx == nil {
		return nil
	}
	return q.ctx.Err()
}

func (q qenv) evalXPath(c *xpath.Compiled, vars xpath.Vars) (xpath.Value, error) {
	return c.EvalWithCtx(q.ctx, q.d, q.d.RootNode, vars)
}

// Eval runs the query against a navigational document view and returns the
// result sequence as a token fragment.
func (q *Query) Eval(d *xpath.Doc) ([]token.Token, error) {
	return q.EvalCtx(context.Background(), d)
}

// EvalCtx is Eval under an operation context.
func (q *Query) EvalCtx(ctx context.Context, d *xpath.Doc) ([]token.Token, error) {
	return evalNode(q.root, qenv{ctx: ctx, d: d}, xpath.Vars{})
}

// CompileStore returns the store's cached parsed query for src, parsing on a
// miss. Parsed queries are immutable and safe for concurrent evaluation; the
// cache is shared with XPath plans (keys are namespaced) and charged to the
// store's memory budget.
func CompileStore(s *core.Store, src string) (*Query, error) {
	key := "xq:" + src
	pc := s.PlanCache()
	if v, ok := pc.Get(key); ok {
		return v.(*Query), nil
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	pc.Put(key, q, int64(len(src))*64+512)
	return q, nil
}

// EvalStore runs the query against a store.
func EvalStore(s *core.Store, src string) ([]token.Token, error) {
	return EvalStoreCtx(context.Background(), s, src)
}

// EvalStoreCtx runs the query against a store under an operation context,
// fetching the parsed form from the store's plan cache.
func EvalStoreCtx(ctx context.Context, s *core.Store, src string) ([]token.Token, error) {
	q, err := CompileStore(s, src)
	if err != nil {
		return nil, err
	}
	d, err := xpath.FromStoreCtx(ctx, s)
	if err != nil {
		return nil, err
	}
	return q.EvalCtx(ctx, d)
}

// EvalString runs the query against a store and serializes the result.
func EvalString(s *core.Store, src string) (string, error) {
	return EvalStringCtx(context.Background(), s, src)
}

// EvalStringCtx is EvalString under an operation context.
func EvalStringCtx(ctx context.Context, s *core.Store, src string) (string, error) {
	toks, err := EvalStoreCtx(ctx, s, src)
	if err != nil {
		return "", err
	}
	return serializeSequence(toks)
}

// serializeSequence renders a result fragment, separating top-level text
// items with spaces per XQuery serialization.
func serializeSequence(toks []token.Token) (string, error) {
	var sb strings.Builder
	ser := xmltok.NewSerializer(&sb)
	depth := 0
	prevTopText := false
	for _, t := range toks {
		if depth == 0 && t.Kind == token.Text && prevTopText {
			if err := ser.Write(token.TextTok(" ")); err != nil {
				return "", err
			}
		}
		if err := ser.Write(t); err != nil {
			return "", err
		}
		prevTopText = depth == 0 && t.Kind == token.Text
		if t.IsBegin() {
			depth++
		} else if t.IsEnd() {
			depth--
		}
	}
	if err := ser.Flush(); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func evalNode(n node, q qenv, vars xpath.Vars) ([]token.Token, error) {
	switch n := n.(type) {
	case *flwor:
		return evalFLWOR(n, q, vars)
	case *elem:
		return evalConstructor(n, q, vars)
	case *exprNode:
		v, err := q.evalXPath(n.expr, vars)
		if err != nil {
			return nil, err
		}
		return valueToTokens(v)
	case *textNode:
		return []token.Token{token.TextTok(n.text)}, nil
	case *condNode:
		v, err := q.evalXPath(n.cond, vars)
		if err != nil {
			return nil, err
		}
		if v.Bool() {
			return evalNode(n.thenBranch, q, vars)
		}
		return evalNode(n.elseBranch, q, vars)
	default:
		return nil, fmt.Errorf("xquery: unknown node %T", n)
	}
}

// evalFLWOR builds the tuple stream clause by clause, filters, orders, and
// concatenates the return results. Before the tuple loop it hoists
// tuple-independent for-clause domains: a clause whose expression references
// no variable bound earlier in this FLWOR produces the same domain for every
// tuple, so it is evaluated once, here.
func evalFLWOR(f *flwor, q qenv, outer xpath.Vars) ([]token.Token, error) {
	pre := make([]*xpath.Value, len(f.clauses))
	bound := map[string]bool{}
	for i, c := range f.clauses {
		if !c.isLet && !slices.ContainsFunc(c.expr.FreeVars(), func(v string) bool { return bound[v] }) {
			v, err := q.evalXPath(c.expr, outer)
			if err != nil {
				return nil, err
			}
			pre[i] = &v
		}
		bound[c.varName] = true
	}
	envs := []xpath.Vars{cloneVars(outer)}
	for ci, c := range f.clauses {
		var next []xpath.Vars
		for _, env := range envs {
			if err := q.check(); err != nil {
				return nil, err
			}
			var v xpath.Value
			if pre[ci] != nil {
				v = *pre[ci]
			} else {
				var err error
				v, err = q.evalXPath(c.expr, env)
				if err != nil {
					return nil, err
				}
			}
			if c.isLet {
				env2 := cloneVars(env)
				env2[c.varName] = v
				next = append(next, env2)
				continue
			}
			if !v.IsNodeSet() {
				return nil, fmt.Errorf("xquery: for $%s needs a node set", c.varName)
			}
			for _, item := range v.Nodes() {
				env2 := cloneVars(env)
				env2[c.varName] = xpath.NodeSetValue([]*xpath.Node{item})
				next = append(next, env2)
			}
		}
		envs = next
	}
	if f.where != nil {
		var kept []xpath.Vars
		for _, env := range envs {
			if err := q.check(); err != nil {
				return nil, err
			}
			v, err := q.evalXPath(f.where, env)
			if err != nil {
				return nil, err
			}
			if v.Bool() {
				kept = append(kept, env)
			}
		}
		envs = kept
	}
	if f.orderBy != nil {
		type keyed struct {
			env xpath.Vars
			s   string
			n   float64
			num bool
		}
		ks := make([]keyed, len(envs))
		for i, env := range envs {
			v, err := q.evalXPath(f.orderBy, env)
			if err != nil {
				return nil, err
			}
			s := v.String()
			n, err2 := strconv.ParseFloat(strings.TrimSpace(s), 64)
			ks[i] = keyed{env: env, s: s, n: n, num: err2 == nil}
		}
		allNum := true
		for _, k := range ks {
			if !k.num {
				allNum = false
				break
			}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			var cmp int
			if allNum {
				switch {
				case ks[i].n < ks[j].n:
					cmp = -1
				case ks[i].n > ks[j].n:
					cmp = 1
				}
			} else {
				cmp = strings.Compare(ks[i].s, ks[j].s)
			}
			if f.orderDesc {
				return cmp > 0
			}
			return cmp < 0
		})
		for i := range ks {
			envs[i] = ks[i].env
		}
	}
	var out []token.Token
	for _, env := range envs {
		if err := q.check(); err != nil {
			return nil, err
		}
		toks, err := evalNode(f.ret, q, env)
		if err != nil {
			return nil, err
		}
		out = append(out, toks...)
	}
	return out, nil
}

func cloneVars(v xpath.Vars) xpath.Vars {
	out := make(xpath.Vars, len(v)+1)
	for k, val := range v {
		out[k] = val
	}
	return out
}

// evalConstructor materializes a direct element constructor.
func evalConstructor(e *elem, q qenv, vars xpath.Vars) ([]token.Token, error) {
	out := []token.Token{token.Elem(e.name)}
	for _, at := range e.attrs {
		var val strings.Builder
		for _, part := range at.parts {
			switch part := part.(type) {
			case *textNode:
				val.WriteString(part.text)
			case *exprNode:
				v, err := q.evalXPath(part.expr, vars)
				if err != nil {
					return nil, err
				}
				val.WriteString(atomize(v))
			default:
				return nil, fmt.Errorf("xquery: invalid attribute template part %T", part)
			}
		}
		out = append(out, token.Attr(at.name, val.String()), token.EndAttr())
	}
	contentStarted := false
	for _, c := range e.content {
		toks, err := evalNode(c, q, vars)
		if err != nil {
			return nil, err
		}
		// Attribute nodes produced by enclosed expressions attach to the
		// element while no other content has been emitted.
		i := 0
		for i < len(toks) && toks[i].Kind == token.BeginAttribute && !contentStarted {
			out = append(out, toks[i], toks[i+1])
			i += 2
		}
		rest := toks[i:]
		if len(rest) > 0 {
			contentStarted = true
			out = append(out, rest...)
		}
	}
	return append(out, token.EndElem()), nil
}

// atomize renders a value for attribute content: node-set items joined by
// spaces, scalars as their string value.
func atomize(v xpath.Value) string {
	if !v.IsNodeSet() {
		return v.String()
	}
	parts := make([]string, len(v.Nodes()))
	for i, n := range v.Nodes() {
		parts[i] = n.StringValue()
	}
	return strings.Join(parts, " ")
}

// valueToTokens converts an expression result into content tokens: node
// sets copy the nodes' subtrees; scalars become text.
func valueToTokens(v xpath.Value) ([]token.Token, error) {
	if !v.IsNodeSet() {
		return []token.Token{token.TextTok(v.String())}, nil
	}
	var out []token.Token
	for _, n := range v.Nodes() {
		out = append(out, nodeToTokens(n)...)
	}
	return out, nil
}

// nodeToTokens reconstructs the token form of a navigational node (a deep
// copy, as XQuery constructor semantics require).
func nodeToTokens(n *xpath.Node) []token.Token {
	switch n.Kind {
	case xpath.Element:
		out := []token.Token{token.Elem(n.Name)}
		for _, a := range n.Attrs {
			out = append(out, token.Attr(a.Name, a.Value), token.EndAttr())
		}
		for _, c := range n.Children {
			out = append(out, nodeToTokens(c)...)
		}
		return append(out, token.EndElem())
	case xpath.Attribute:
		return []token.Token{token.Attr(n.Name, n.Value), token.EndAttr()}
	case xpath.TextNode:
		return []token.Token{token.TextTok(n.Value)}
	case xpath.Comment:
		return []token.Token{token.CommentTok(n.Value)}
	case xpath.PI:
		return []token.Token{token.PITok(n.Name, n.Value)}
	case xpath.Root:
		var out []token.Token
		for _, c := range n.Children {
			out = append(out, nodeToTokens(c)...)
		}
		return out
	}
	return nil
}

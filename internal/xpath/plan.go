package xpath

import (
	"strings"

	"repro/internal/core"
)

// The query planner. A compiled expression is analyzed once and the result —
// a Plan — is what the store-level query API caches and executes. Planning
// picks one of two execution strategies:
//
//  1. Pushdown: the whole expression (a location path, a union of location
//     paths, or count() of one) compiles to a scanProgram — a small NFA the
//     executor runs directly over the store's raw token stream. No
//     navigational view is built, no intermediate node set is materialized,
//     and a union of N branches is fused into ONE scan. Eligible steps are
//     the child and `//` axes with element name tests and a final attribute
//     step. Eligible predicates are positional ([N], [position()=N], anywhere
//     in a step's list) or boolean trees (and / or / not()) over atoms the
//     scan decides from the element's own attributes and children:
//     [@a='lit'], [@a], [name='lit'], [name], [text()='lit'] (literal on
//     either side of '=').
//  2. Tree: everything else (reverse axes, last(), numeric comparisons, $var
//     bases, nested predicate paths such as [a/b='x']) falls back to the tree
//     evaluator over a Doc built for the call (Bound.fallback).
type Plan struct {
	c    *Compiled
	prog *scanProgram // non-nil: strategy 1
	// count is set when the expression is count(path) and the path pushes
	// down: the program counts matches instead of collecting ids, and the
	// result is a number.
	count bool
	// cost is the cache charge estimate in bytes.
	cost int64
	// probeKey is non-empty for a probe shape, which the lazy value index can
	// answer (valueindex.go): a one-branch path split into a head — the steps up
	// to and including the path's first predicate, a lone equality atom — and a
	// rest. The key is the head with the literal blanked and the atom's kind
	// spelled, so every rest and every literal of one head share a table. The
	// literal is the one in prog.atoms[0]'s slot.
	probeKey string
	head     *pathExpr // the head alone: what the fill scan runs
	// The rest: [probePos] right after the atom (0: none), then the steps that
	// follow, compiled as `*/steps` to run anchored at a head element (nil: none).
	probePos int
	rest     *scanProgram
	headDesc bool // a `//` in the head: its elements may nest
}

// Pushdown reports whether the plan executes as a raw-token scan program.
func (p *Plan) Pushdown() bool { return p.prog != nil }

// Predicates returns the number of predicates the pushed-down program
// evaluates inside the scan (0 for fallback plans) — the observability hook
// behind the PushdownPredicates counter.
func (p *Plan) Predicates() int {
	if p.prog == nil {
		return 0
	}
	return p.prog.npreds
}

// scanProgram is the compiled form of a pushdown-eligible expression: a set
// of branches sharing one token scan. Branch b's element steps are assigned
// the contiguous NFA state bits [base, base+len(steps)]; bit base+j set on an
// element's frame means "the first j steps match on the path from the scan
// root to this element", so the element's children are candidates for step j.
// State base+len(steps) is the accepting state.
type scanProgram struct {
	branches  []scanBranch
	nBits     int        // total allocated state bits (≤ 64)
	nCounters int        // total positional-predicate counters (≤ maxPosCounters)
	atoms     []scanAtom // predicate atoms; the index is the atom's bit in a frame's sat mask (≤ 64)
	nodes     []predNode // the boolean predicate trees, flattened
	npreds    int        // total predicates, for stats
	tab       progTables
}

type scanBranch struct {
	steps []scanStep
	base  int // first state bit
	// attr, when non-empty, is a final attribute step: the program emits the
	// ids of attributes with this name on elements in the accepting state.
	// attrDesc marks `//@attr`: the accepting state propagates to all
	// descendants, capturing the attribute anywhere below a match.
	attr     string
	attrDesc bool
}

type scanStep struct {
	desc  bool   // true: `//name` (match at any depth); false: child step
	name  string // element name test; "" matches any element (`*`)
	preds []scanPred
	atoms uint64 // the atoms preds reads
}

// scanPred is one predicate of a step, in source order: positional when
// pos > 0 (ctr indexes the parent frame's counter array), otherwise the
// boolean tree rooted at nodes[root].
type scanPred struct {
	pos, ctr int
	root     int
}

// An atom is a test the scan decides from one element's own tokens. Attribute
// atoms are known by the end of the element's attribute block; child and text
// atoms turn true as soon as a child satisfies them and false only at the
// element's end token.
type atomKind uint8

const (
	atomAttr  atomKind = iota // [@name], [@name='lit']
	atomChild                 // [name], [name='lit']: a child element, by string-value
	atomText                  // [text()='lit']: one text child
)

type scanAtom struct {
	kind atomKind
	name string
	slot int  // the literal compared with: the run's lits[slot]
	has  bool // existence test: any value satisfies it
}

type predOp uint8

const (
	opAtom predOp = iota // l is the atom index
	opNot                // l is the operand
	opAnd
	opOr
)

type predNode struct {
	op   predOp
	l, r int
}

const (
	maxStateBits   = 64
	maxAtoms       = 64
	maxPosCounters = 8
)

// PlanQuery analyzes a compiled expression. It never fails: ineligible
// expressions simply get a fallback plan.
func PlanQuery(c *Compiled) *Plan {
	p := &Plan{c: c, cost: planCost(c)}
	root := c.root

	// count(path) pushes the count into the scan.
	if f, ok := root.(*funcExpr); ok && f.name == "count" && len(f.args) == 1 {
		if path, ok := f.args[0].(*pathExpr); ok {
			if prog, ok := compileProgram([]*pathExpr{path}); ok {
				p.prog = prog
				p.count = true
				p.planProbe(path)
			}
		}
		return p
	}

	paths, isUnion := unionBranches(root)
	if paths == nil {
		return p
	}
	if prog, ok := compileProgram(paths); ok {
		p.prog = prog
		if !isUnion {
			p.planProbe(paths[0])
		}
	}
	return p
}

// planProbe recognises a probe shape in the pushdown path and splits it into
// head and rest. Out — they scan — are a predicate before the atom, a boolean
// tree around it, and anything but one positional predicate after it on its
// step.
func (p *Plan) planProbe(path *pathExpr) {
	i := 0
	for i < len(path.steps) && len(path.steps[i].preds) == 0 {
		i++
	}
	if i == len(path.steps) {
		return
	}
	preds := path.steps[i].preds
	a, ok := predAtom(preds[0])
	if !ok || a.has || len(preds) > 2 {
		return
	}
	pos := 0
	if len(preds) == 2 {
		if pos, ok = positionTest(preds[1]); !ok {
			return
		}
	}
	var key strings.Builder
	key.WriteString(core.ValueIndexKeyPrefix)
	for _, st := range path.steps[:i+1] {
		// "/" per step, one more for `//`, then a never-empty name: the key
		// parses back one way.
		key.WriteString("/")
		if st.axis == axDescendantOrSelf {
			p.headDesc = true
			continue
		}
		if st.test.name == "" {
			key.WriteString("*")
		}
		key.WriteString(st.test.name)
	}
	key.WriteString([...]string{atomAttr: "[@", atomChild: "[", atomText: "[text()"}[a.kind] + a.name)
	if tail := path.steps[i+1:]; len(tail) != 0 {
		anchor := step{axis: axChild, test: nodeTest{kind: Element, name: "*"}}
		if p.rest, ok = compileProgram([]*pathExpr{{steps: append([]step{anchor}, tail...)}}); !ok {
			return
		}
	}
	p.head = &pathExpr{steps: append([]step(nil), path.steps[:i+1]...)}
	p.head.steps[i].preds = preds[:1]
	p.probeKey, p.probePos = key.String(), pos
}

// fillProgram is a probe shape's head with the atom turned into an existence
// test, to be run with a capture. Every element that reaches the atom is
// captured: no other predicate exists, so every state is decided when met and
// an element is tested only once the steps before it are known to match.
// Built per fill, not kept per plan.
func (p *Plan) fillProgram() *scanProgram {
	fill, _ := compileProgram([]*pathExpr{p.head})
	fill.atoms[0].has = true
	return fill
}

// unionBranches flattens a `|` tree whose leaves are all location paths.
// Returns (nil, false) when any leaf is something else; isUnion reports
// whether there was at least one `|`.
func unionBranches(e expr) (paths []*pathExpr, isUnion bool) {
	switch e := e.(type) {
	case *binaryExpr:
		if e.op != "|" {
			return nil, false
		}
		l, _ := unionBranches(e.l)
		if l == nil {
			return nil, false
		}
		r, _ := unionBranches(e.r)
		if r == nil {
			return nil, false
		}
		return append(l, r...), true
	case *pathExpr:
		return []*pathExpr{e}, false
	default:
		return nil, false
	}
}

// compileProgram translates location paths into one fused scan program, or
// reports ineligibility.
func compileProgram(paths []*pathExpr) (*scanProgram, bool) {
	prog := &scanProgram{}
	for _, path := range paths {
		br, ok := compileBranch(path, prog)
		if !ok {
			return nil, false
		}
		br.base = prog.nBits
		prog.nBits += len(br.steps) + 1
		if prog.nBits > maxStateBits {
			return nil, false
		}
		prog.branches = append(prog.branches, br)
	}
	prog.finish()
	return prog, true
}

func compileBranch(path *pathExpr, prog *scanProgram) (scanBranch, bool) {
	var br scanBranch
	if path.base != nil {
		return br, false // $var/... paths need the variable environment
	}
	// Note: relative and absolute paths are equivalent here because the
	// store-level executor always anchors at the (virtual) root.
	pendingDesc := false
	for i, st := range path.steps {
		switch {
		case st.axis == axDescendantOrSelf && st.test.any && len(st.preds) == 0:
			// The expansion of `//`: fold into the next step's desc flag.
			pendingDesc = true
			continue
		case st.axis == axChild && st.test.kind == Element && !st.test.any:
			name := st.test.name
			if name == "*" {
				name = ""
			}
			ss := scanStep{desc: pendingDesc, name: name}
			pendingDesc = false
			firstAtom := len(prog.atoms)
			for _, pe := range st.preds {
				sp, ok := compilePred(pe, prog)
				if !ok {
					return br, false
				}
				ss.preds = append(ss.preds, sp)
			}
			ss.atoms = 1<<len(prog.atoms) - 1<<firstAtom // bits [firstAtom, len)
			br.steps = append(br.steps, ss)
		case st.axis == axAttribute && st.test.kind == Attribute && !st.test.any &&
			st.test.name != "" && st.test.name != "*" && len(st.preds) == 0 &&
			i == len(path.steps)-1:
			br.attr = st.test.name
			br.attrDesc = pendingDesc
			pendingDesc = false
		default:
			return br, false
		}
	}
	if pendingDesc {
		// A trailing bare `//` (can't happen syntactically, but be safe).
		return br, false
	}
	if len(br.steps) == 0 && br.attr == "" {
		return br, false // bare `/` selects the root; leave it to the fallback
	}
	return br, true
}

func compilePred(pe expr, prog *scanProgram) (scanPred, bool) {
	prog.npreds++
	if n, ok := positionTest(pe); ok {
		if n < 1 || prog.nCounters >= maxPosCounters {
			return scanPred{}, false
		}
		prog.nCounters++
		return scanPred{pos: n, ctr: prog.nCounters - 1}, true
	}
	root, ok := compileBool(pe, prog)
	return scanPred{root: root}, ok
}

// positionTest matches [N] and [position()=N] (either operand order) for an
// integral N.
func positionTest(pe expr) (int, bool) {
	if b, ok := pe.(*binaryExpr); ok && b.op == "=" {
		switch {
		case isPositionCall(b.l):
			pe = b.r
		case isPositionCall(b.r):
			pe = b.l
		}
	}
	num, ok := pe.(*numberExpr)
	if !ok || float64(int(num.v)) != num.v {
		return 0, false
	}
	return int(num.v), true
}

func isPositionCall(e expr) bool {
	f, ok := e.(*funcExpr)
	return ok && f.name == "position" && len(f.args) == 0
}

// compileBool flattens a boolean predicate into prog.nodes and returns its
// root; it reports false for anything but and/or/not() over atoms.
func compileBool(e expr, prog *scanProgram) (int, bool) {
	var node predNode
	b, _ := e.(*binaryExpr)
	f, _ := e.(*funcExpr)
	switch {
	case b != nil && (b.op == "and" || b.op == "or"):
		l, lok := compileBool(b.l, prog)
		r, rok := compileBool(b.r, prog)
		if !lok || !rok {
			return 0, false
		}
		node = predNode{op: opAnd, l: l, r: r}
		if b.op == "or" {
			node.op = opOr
		}
	case f != nil && f.name == "not" && len(f.args) == 1:
		l, ok := compileBool(f.args[0], prog)
		if !ok {
			return 0, false
		}
		node = predNode{op: opNot, l: l}
	default:
		a, ok := predAtom(e)
		if !ok || len(prog.atoms) >= maxAtoms {
			return 0, false
		}
		prog.atoms = append(prog.atoms, a)
		node = predNode{op: opAtom, l: len(prog.atoms) - 1}
	}
	prog.nodes = append(prog.nodes, node)
	return len(prog.nodes) - 1, true
}

// predAtom matches an atom: a bare @name or name (existence), or @name, name
// or text() compared by '=' with a literal on either side.
func predAtom(e expr) (scanAtom, bool) {
	b, _ := e.(*binaryExpr)
	if b == nil {
		a, ok := atomStep(e)
		return a, ok && a.kind != atomText
	}
	path, other := b.l, b.r
	if _, ok := path.(*literalExpr); ok {
		path, other = other, path
	}
	lit, ok := other.(*literalExpr)
	a, aok := atomStep(path)
	if b.op != "=" || !ok || !aok {
		return a, false
	}
	a.slot, a.has = lit.slot, false
	return a, true
}

// atomStep matches a relative single-step path the scan can test on one
// element — @name, name or text() — and returns it as an existence atom.
func atomStep(e expr) (scanAtom, bool) {
	p, ok := e.(*pathExpr)
	if !ok || p.absolute || p.base != nil || len(p.steps) != 1 {
		return scanAtom{}, false
	}
	st := p.steps[0]
	named := st.test.name != "" && st.test.name != "*"
	switch {
	case st.test.any || len(st.preds) != 0:
	case st.axis == axAttribute && st.test.kind == Attribute && named:
		return scanAtom{kind: atomAttr, name: st.test.name, has: true}, true
	case st.axis == axChild && st.test.kind == Element && named:
		return scanAtom{kind: atomChild, name: st.test.name, has: true}, true
	case st.axis == axChild && st.test.kind == TextNode:
		return scanAtom{kind: atomText, has: true}, true
	}
	return scanAtom{}, false
}

// planCost estimates the bytes a cached plan holds live: the source string,
// the AST (roughly proportional to it), and the program tables.
func planCost(c *Compiled) int64 {
	return int64(len(c.src))*48 + 384
}

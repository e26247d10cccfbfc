package xpath

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Lexer and recursive-descent parser for the XPath subset.
//
// Grammar (abbreviations expanded during parsing):
//
//	Expr        := OrExpr
//	OrExpr      := AndExpr ('or' AndExpr)*
//	AndExpr     := CmpExpr ('and' CmpExpr)*
//	CmpExpr     := AddExpr (('='|'!='|'<'|'<='|'>'|'>=') AddExpr)?
//	AddExpr     := Unary (('+'|'-') Unary)*
//	Unary       := '-' Unary | PathExpr
//	PathExpr    := Literal | Number | FuncCall | LocationPath | '(' Expr ')'
//	LocationPath:= ('/' | '//')? Step (('/' | '//') Step)*
//	Step        := '.' | '..' | ('@' | Axis'::')? NodeTest Pred*
//	NodeTest    := NCName | '*' | 'text()' | 'node()' | 'comment()'
//	Pred        := '[' Expr ']'

type tokKind int

const (
	tEOF tokKind = iota
	tSlash
	tDSlash
	tLBracket
	tRBracket
	tLParen
	tRParen
	tAt
	tDot
	tDotDot
	tAxis // name::
	tName // NCName or QName
	tStar
	tNumber
	tString
	tComma
	tVar // $name
	tOp  // = != < <= > >= + -
)

type lexTok struct {
	kind tokKind
	text string
	num  float64
	pos  int
}

// ErrSyntax is the sentinel every parse failure matches with errors.Is: the
// expression itself is bad, as opposed to its evaluation failing.
var ErrSyntax = errors.New("xpath: syntax error")

// SyntaxError reports an XPath parse failure.
type SyntaxError struct {
	Query string
	Pos   int
	Msg   string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %s at offset %d in %q", e.Msg, e.Pos, e.Query)
}

func (e *SyntaxError) Is(target error) bool { return target == ErrSyntax }

type lexer struct {
	src  string
	pos  int
	toks []lexTok
}

func lex(src string) ([]lexTok, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		if err := l.next(); err != nil {
			return nil, err
		}
	}
	l.toks = append(l.toks, lexTok{kind: tEOF, pos: l.pos})
	return l.toks, nil
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Query: l.src, Pos: l.pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, lexTok{kind: k, text: text, pos: l.pos})
}

func isNameByte(r rune) bool {
	return r == '_' || r == '-' || r == '.' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) next() error {
	c := l.src[l.pos]
	switch {
	case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		l.pos++
	case c == '/':
		if strings.HasPrefix(l.src[l.pos:], "//") {
			l.emit(tDSlash, "//")
			l.pos += 2
		} else {
			l.emit(tSlash, "/")
			l.pos++
		}
	case c == '[':
		l.emit(tLBracket, "[")
		l.pos++
	case c == ']':
		l.emit(tRBracket, "]")
		l.pos++
	case c == '(':
		l.emit(tLParen, "(")
		l.pos++
	case c == ')':
		l.emit(tRParen, ")")
		l.pos++
	case c == '@':
		l.emit(tAt, "@")
		l.pos++
	case c == '$':
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && isNameByte(rune(l.src[l.pos])) {
			l.pos++
		}
		if l.pos == start+1 {
			return l.errf("'$' must be followed by a variable name")
		}
		l.toks = append(l.toks, lexTok{kind: tVar, text: l.src[start+1 : l.pos], pos: start})
	case c == ',':
		l.emit(tComma, ",")
		l.pos++
	case c == '*':
		l.emit(tStar, "*")
		l.pos++
	case c == '.':
		if strings.HasPrefix(l.src[l.pos:], "..") {
			l.emit(tDotDot, "..")
			l.pos += 2
		} else if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.lexNumber()
		} else {
			l.emit(tDot, ".")
			l.pos++
		}
	case c == '=':
		l.emit(tOp, "=")
		l.pos++
	case c == '!':
		if !strings.HasPrefix(l.src[l.pos:], "!=") {
			return l.errf("unexpected '!'")
		}
		l.emit(tOp, "!=")
		l.pos += 2
	case c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			op += "="
			l.pos++
		}
		l.toks = append(l.toks, lexTok{kind: tOp, text: op, pos: l.pos})
	case c == '+' || c == '-' || c == '|':
		l.emit(tOp, string(c))
		l.pos++
	case c == '\'' || c == '"':
		text, end, ok := literalAt(l.src, l.pos)
		if !ok {
			return l.errf("unterminated string literal")
		}
		l.emit(tString, text)
		l.pos = end
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case isNameByte(rune(c)):
		start := l.pos
		for l.pos < len(l.src) {
			r := rune(l.src[l.pos])
			if !isNameByte(r) {
				break
			}
			// "::" terminates the name as an axis.
			if r == ':' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
				break
			}
			l.pos++
		}
		name := l.src[start:l.pos]
		if strings.HasPrefix(l.src[l.pos:], "::") {
			l.pos += 2
			l.toks = append(l.toks, lexTok{kind: tAxis, text: name, pos: start})
		} else {
			l.toks = append(l.toks, lexTok{kind: tName, text: name, pos: start})
		}
	default:
		return l.errf("unexpected character %q", c)
	}
	return nil
}

// literalAt reads the string literal whose opening quote is src[i]: its
// text, and the offset just past its closing quote. ok is false when it is
// not closed.
func literalAt(src string, i int) (text string, end int, ok bool) {
	n := strings.IndexByte(src[i+1:], src[i])
	if n < 0 {
		return "", 0, false
	}
	return src[i+1 : i+1+n], i + n + 2, true
}

// shapeKey appends to dst the plan-cache key of src's shape — "xp:", then
// src with each string literal replaced by an empty one in single quotes —
// and appends src's string literals to lits in source order, the order Parse
// gives them their slots. It finds them by the lexer's own rule: a quote
// outside a literal can only begin one, since no other token holds a quote,
// and literalAt ends it. Source with an unclosed literal gets an empty key.
// Whether source lexes and parses is decided by its text outside the
// literals, which the key holds: source Parse rejects never finds a plan.
func shapeKey(dst []byte, src string, lits []string) ([]byte, []string) {
	dst = append(dst, "xp:"...)
	from := 0 // src[:from] is in the key
	for q := nextQuote(src, 0); q >= 0; q = nextQuote(src, from) {
		text, end, ok := literalAt(src, q)
		if !ok {
			return dst[:0], lits
		}
		dst = append(append(dst, src[from:q]...), "''"...)
		lits = append(lits, text)
		from = end
	}
	return append(dst, src[from:]...), lits
}

// nextQuote is the offset of the first quote of either kind in src[from:],
// or -1.
func nextQuote(src string, from int) int {
	for i := from; i < len(src); i++ {
		if c := src[i]; c == '\'' || c == '"' {
			return i
		}
	}
	return -1
}

func (l *lexer) lexNumber() error {
	start := l.pos
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	v, err := strconv.ParseFloat(l.src[start:l.pos], 64)
	if err != nil {
		return l.errf("bad number %q", l.src[start:l.pos])
	}
	l.toks = append(l.toks, lexTok{kind: tNumber, num: v, pos: start})
	return nil
}

// AST.

type expr interface{}

type binaryExpr struct {
	op   string // or, and, =, !=, <, <=, >, >=, +, -
	l, r expr
}

type negExpr struct{ e expr }

// literalExpr is a string literal, by its slot: the literal's rank among the
// expression's string literals in source order. Its value is bound per
// evaluation (evalCtx.lits), so one plan serves every literal of its shape.
type literalExpr struct{ slot int }

type numberExpr struct{ v float64 }

type funcExpr struct {
	name string
	args []expr
}

type pathExpr struct {
	absolute bool
	base     expr // non-nil when the path starts from a variable: $x/steps
	steps    []step
}

type axisKind int

const (
	axChild axisKind = iota
	axDescendant
	axDescendantOrSelf
	axParent
	axAncestor
	axAncestorOrSelf
	axSelf
	axFollowingSibling
	axPrecedingSibling
	axAttribute
)

var axisNames = map[string]axisKind{
	"child":              axChild,
	"descendant":         axDescendant,
	"descendant-or-self": axDescendantOrSelf,
	"parent":             axParent,
	"ancestor":           axAncestor,
	"ancestor-or-self":   axAncestorOrSelf,
	"self":               axSelf,
	"following-sibling":  axFollowingSibling,
	"preceding-sibling":  axPrecedingSibling,
	"attribute":          axAttribute,
}

type nodeTest struct {
	kind NodeKind // Element, Attribute, TextNode, Comment — with anyKind for node()
	any  bool     // node()
	name string   // "" or "*" matches any name
}

type step struct {
	axis  axisKind
	test  nodeTest
	preds []expr
}

type parser struct {
	src  string
	toks []lexTok
	i    int
	lits []string // the string literals met so far, by slot
}

// Parse compiles an XPath expression.
func Parse(src string) (*Compiled, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, p.errf("trailing input")
	}
	return &Compiled{src: src, root: e, lits: p.lits}, nil
}

// Compiled is a parsed, reusable XPath expression.
type Compiled struct {
	src  string
	root expr
	lits []string // its own string literals, by slot
}

// String returns the source expression.
func (c *Compiled) String() string { return c.src }

func (p *parser) cur() lexTok { return p.toks[p.i] }
func (p *parser) advance()    { p.i++ }
func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Query: p.src, Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tName && p.cur().text == "or" {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tName && p.cur().text == "and" {
		p.advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tOp && (t.text == "=" || t.text == "!=" ||
		t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">=") {
		p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &binaryExpr{op: t.text, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOp && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.cur().text
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.cur().kind == tOp && p.cur().text == "-" {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negExpr{e}, nil
	}
	return p.parseUnion()
}

// parseUnion parses PathExpr ('|' PathExpr)* — node-set union.
func (p *parser) parseUnion() (expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOp && p.cur().text == "|" {
		p.advance()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "|", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (expr, error) {
	switch t := p.cur(); t.kind {
	case tString:
		p.advance()
		p.lits = append(p.lits, t.text)
		return &literalExpr{slot: len(p.lits) - 1}, nil
	case tNumber:
		p.advance()
		return &numberExpr{t.num}, nil
	case tLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tRParen {
			return nil, p.errf("expected ')'")
		}
		p.advance()
		return e, nil
	case tName:
		// Function call?
		if p.toks[p.i+1].kind == tLParen && !isNodeTestFunc(t.text) {
			return p.parseFuncCall()
		}
		return p.parsePath()
	case tVar:
		p.advance()
		v := &varExpr{name: t.text}
		if p.cur().kind == tSlash || p.cur().kind == tDSlash {
			return p.parseVarPath(v)
		}
		return v, nil
	case tSlash, tDSlash, tDot, tDotDot, tAt, tStar, tAxis:
		return p.parsePath()
	default:
		return nil, p.errf("unexpected token")
	}
}

func isNodeTestFunc(name string) bool {
	switch name {
	case "text", "node", "comment", "processing-instruction":
		return true
	}
	return false
}

func (p *parser) parseFuncCall() (expr, error) {
	name := p.cur().text
	p.advance() // name
	p.advance() // (
	var args []expr
	if p.cur().kind != tRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind != tComma {
				break
			}
			p.advance()
		}
	}
	if p.cur().kind != tRParen {
		return nil, p.errf("expected ')' after function arguments")
	}
	p.advance()
	return &funcExpr{name: name, args: args}, nil
}

// parseVarPath parses the steps of a $var/... path.
func (p *parser) parseVarPath(base expr) (expr, error) {
	pe := &pathExpr{base: base}
	for {
		if p.cur().kind == tSlash {
			p.advance()
		} else if p.cur().kind == tDSlash {
			p.advance()
			pe.steps = append(pe.steps, step{axis: axDescendantOrSelf, test: nodeTest{any: true}})
		} else {
			break
		}
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
	}
	return pe, nil
}

func (p *parser) parsePath() (expr, error) {
	pe := &pathExpr{}
	switch p.cur().kind {
	case tSlash:
		pe.absolute = true
		p.advance()
		if !p.startsStep() {
			return pe, nil // bare "/"
		}
	case tDSlash:
		pe.absolute = true
		p.advance()
		pe.steps = append(pe.steps, step{axis: axDescendantOrSelf, test: nodeTest{any: true}})
	}
	for {
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, st)
		if p.cur().kind == tSlash {
			p.advance()
		} else if p.cur().kind == tDSlash {
			p.advance()
			pe.steps = append(pe.steps, step{axis: axDescendantOrSelf, test: nodeTest{any: true}})
		} else {
			break
		}
	}
	return pe, nil
}

func (p *parser) startsStep() bool {
	switch p.cur().kind {
	case tName, tStar, tAt, tDot, tDotDot, tAxis:
		return true
	}
	return false
}

func (p *parser) parseStep() (step, error) {
	st := step{axis: axChild}
	switch t := p.cur(); t.kind {
	case tDot:
		p.advance()
		return step{axis: axSelf, test: nodeTest{any: true}}, nil
	case tDotDot:
		p.advance()
		return step{axis: axParent, test: nodeTest{any: true}}, nil
	case tAt:
		p.advance()
		st.axis = axAttribute
	case tAxis:
		ax, ok := axisNames[t.text]
		if !ok {
			return st, p.errf("unknown axis %q", t.text)
		}
		st.axis = ax
		p.advance()
	}
	// Node test.
	switch t := p.cur(); t.kind {
	case tStar:
		p.advance()
		if st.axis == axAttribute {
			st.test = nodeTest{kind: Attribute, name: "*"}
		} else {
			st.test = nodeTest{kind: Element, name: "*"}
		}
	case tName:
		name := t.text
		p.advance()
		if p.cur().kind == tLParen && isNodeTestFunc(name) {
			p.advance()
			if p.cur().kind != tRParen {
				return st, p.errf("node test takes no arguments")
			}
			p.advance()
			switch name {
			case "text":
				st.test = nodeTest{kind: TextNode}
			case "comment":
				st.test = nodeTest{kind: Comment}
			case "processing-instruction":
				st.test = nodeTest{kind: PI}
			case "node":
				st.test = nodeTest{any: true}
			}
		} else {
			if st.axis == axAttribute {
				st.test = nodeTest{kind: Attribute, name: name}
			} else {
				st.test = nodeTest{kind: Element, name: name}
			}
		}
	default:
		return st, p.errf("expected node test")
	}
	// Predicates.
	for p.cur().kind == tLBracket {
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return st, err
		}
		if p.cur().kind != tRBracket {
			return st, p.errf("expected ']'")
		}
		p.advance()
		st.preds = append(st.preds, e)
	}
	return st, nil
}

package xpath

// The pushdown executor: runs a scanProgram directly over the store's raw
// token stream (ScanRawCtx / ScanNodeRawCtx). One pass, no navigational
// view, no intermediate node sets; names and values are compared in place
// with the store's Dict().View (a name by id is the dictionary's interned
// copy), so the steady-state execution allocates nothing beyond the pooled
// stacks.
//
// The machine is a stack automaton mirroring the token nesting: each open
// element holds a frame of NFA state sets (see scanProgram and xframe).
//
//   - Attribute atoms are final when the attribute block closes, which the
//     token layout puts before the first child: a plan whose predicates read
//     only attributes never has an undecided frame with children and never
//     holds a candidate. Child and text atoms turn true as soon as a child
//     satisfies them and false at the element's own end token, so an element
//     is fully decided before its next sibling begins and positional
//     counters advance in document order.
//   - A match met while a state it needs is undecided is held in the
//     candidate queue as (id, frame, states): it stands iff one of the states
//     is achieved on that frame. It is confirmed or dropped when the frame
//     decides, and re-homed to the parent when the frame ends with states
//     still hanging there. The queue is in document order and only its
//     confirmed head is emitted: results stream out sorted, with no sort.
//   - Dead subtrees: once an element's states can neither advance a step nor
//     propagate, and no string-value watcher is open, everything up to its
//     end token is consumed by begin/end depth counting alone.

import (
	"context"
	"errors"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/token"
)

var errMalformedStream = errors.New("xpath: malformed token stream")

// attrCapture is a final attribute step: capture attributes named name on
// frames whose mask reaches acceptMask.
type attrCapture struct {
	name       string
	acceptMask uint64
}

// Derived execution tables, built once per program by finish.
type progTables struct {
	stepOf        [maxStateBits]*scanStep // the step owning each non-accepting state bit
	initMask      uint64                  // start states (bit base of every branch)
	propMask      uint64                  // states that propagate to child frames (desc steps, attrDesc accepts)
	acceptAllMask uint64                  // all accepting states
	acceptElem    uint64                  // accepting states of element-result branches
	attrCaptures  []attrCapture
	kindAtoms     [3]uint64 // the atoms of each atomKind
}

// finish fills the derived tables. Called once at plan time.
func (p *scanProgram) finish() {
	t := &p.tab
	for bi := range p.branches {
		br := &p.branches[bi]
		t.initMask |= 1 << br.base
		accept := uint64(1) << (br.base + len(br.steps))
		t.acceptAllMask |= accept
		if br.attr == "" {
			t.acceptElem |= accept
		} else {
			t.attrCaptures = append(t.attrCaptures, attrCapture{name: br.attr, acceptMask: accept})
			if br.attrDesc {
				t.propMask |= accept
			}
		}
		for j := range br.steps {
			t.stepOf[br.base+j] = &br.steps[j]
			if br.steps[j].desc {
				t.propMask |= 1 << (br.base + j)
			}
		}
	}
	for i, a := range p.atoms {
		t.kindAtoms[a.kind] |= 1 << i
	}
}

// tri is a Kleene truth value, ordered so that and is min, or is max and
// not is triTrue-v.
type tri int8

const (
	triFalse tri = iota
	triUnknown
	triTrue
)

const (
	phAttrs   uint8 = iota // inside the attribute block
	phContent              // attribute atoms are final
	phEnded                // every atom is final
)

type attrHit struct {
	mask uint64 // accepting states of the branches capturing this attribute
	id   core.NodeID
}

// xframe is the per-open-element automaton state. A state is in sure once
// achieved for certain. Until then it is undecided: in pend while the
// element's own predicates for the step are open, in wait once they passed
// but the step's source state in the parent frame is undecided, in inh when
// propagated from an undecided state of the parent.
type xframe struct {
	id                    core.NodeID
	sure, pend, wait, inh uint64
	sat                   uint64 // atoms found true so far
	want                  uint64 // atoms the pend states' predicates read
	phase                 uint8
	doc                   bool // a document node: transparent to steps, counters and atoms
	// Positional predicates (by counter index) this element was already
	// counted under, and which of them it passed.
	counted, passed uint8
	// ctrParent indexes the enclosing element's frame — the one whose
	// counters and child atoms this element feeds; ctrSelf the frame this
	// frame's children feed (self, or the enclosing element for a document).
	// The frame is kept at 128 bytes: it is pushed once per element.
	ctrParent int32
	ctrSelf   int32
	// candLo is the absolute queue position when pushed: later candidates may
	// depend on this frame. In a child- or text-atom fill every element that
	// reaches the atom is queued once, right after its push, so candLo is also
	// its rank among them in document order (see captured).
	candLo   int32
	counters [maxPosCounters]int32
	attrBuf  []attrHit
}

func (f *xframe) maybe() uint64 { return f.pend | f.wait | f.inh }

// watcher compares one child element's string-value against a [name='lit']
// atom of the enclosing element as its text tokens stream by. In a fill it
// collects the value instead: capBuf[off:] when the child ends.
type watcher struct {
	frame int // the child's frame
	atom  int
	off   int // bytes of the literal matched so far
	ok    bool
}

// cand is a match held back on an undecided frame: it stands iff any state
// in mask is achieved on frames[frame].
type cand struct {
	id    core.NodeID
	frame int
	mask  uint64
}

const (
	candConfirmed = -1
	candDropped   = -2
)

type scanExec struct {
	prog    *scanProgram
	lits    []string // the run's string literals, by slot: a copy, so a caller's buffer stays its own
	emit    func(core.NodeID) bool
	frames  []xframe
	watch   []watcher
	cands   []cand
	head    int // first candidate neither emitted nor dropped
	candOff int // absolute queue position of cands[0]
	skip    int // >0: depth inside a region consumed by begin/end counting alone
	stopped bool
	err     error
	// capture, set for a value-table fill, is handed every value the program's
	// one atom meets — each value of the attribute, the string-value of each
	// same-named child, each text child — with the id of the element carrying
	// it, its parent's, and its document-order rank (see captured and
	// Plan.fillProgram). A fill never satisfies a child or text atom: the
	// element stays open for all its values. Returning false stops the scan.
	// capBuf holds the text of the watched children that are open. Last, on
	// purpose: ahead of frames these cost every scan 4–5 % (EXPERIMENTS E12).
	capture func(id, parent core.NodeID, ord int32, val []byte) bool
	capBuf  []byte
	// dict decodes names: the store's, or nil for inline names only.
	dict *token.Dict
}

var execPool = sync.Pool{New: func() any { return new(scanExec) }}

func newScanExec(prog *scanProgram, lits []string, emit func(core.NodeID) bool) *scanExec {
	e := execPool.Get().(*scanExec)
	*e = scanExec{prog: prog, lits: append(e.lits[:0], lits...), emit: emit, frames: e.frames[:0], watch: e.watch[:0], cands: e.cands[:0], capBuf: e.capBuf[:0]}
	// Frame 0 is the virtual root, holding every branch's start state. For
	// anchored scans the anchor's begin token is processed as the root's
	// first child — the same shape BuildDoc gives a subtree.
	e.open(core.InvalidNode).sure = prog.tab.initMask
	return e
}

func (e *scanExec) release() {
	clear(e.lits)
	e.prog = nil
	e.emit = nil
	e.capture = nil
	e.dict = nil
	execPool.Put(e)
}

// open pushes a zeroed frame, keeping the slot's attrBuf capacity.
func (e *scanExec) open(id core.NodeID) *xframe {
	n := len(e.frames)
	if n < cap(e.frames) {
		e.frames = e.frames[:n+1]
	} else {
		e.frames = append(e.frames, xframe{})
	}
	f := &e.frames[n]
	*f = xframe{id: id, candLo: int32(e.candOff + len(e.cands)), attrBuf: f.attrBuf[:0]}
	return f
}

func (e *scanExec) onToken(id core.NodeID, raw []byte) bool {
	if len(raw) == 0 {
		return e.fail(errMalformedStream)
	}
	k := token.KindOf(raw[0])
	if e.skip > 0 {
		switch {
		case k.IsBegin():
			e.skip++
		case k.IsEnd():
			e.skip--
		}
		return true
	}
	top := len(e.frames) - 1
	switch k {
	case token.BeginAttribute:
		// The value is carried on the begin token; the matching end is skipped.
		e.onAttribute(top, id, raw)
		e.skip = 1
	case token.EndElement, token.EndDocument:
		if top == 0 || e.frames[top].doc != (k == token.EndDocument) {
			return e.fail(errMalformedStream)
		}
		e.pop(top)
	case token.BeginElement, token.BeginDocument, token.Text, token.Comment, token.PI:
		f := &e.frames[top]
		tab := &e.prog.tab
		if f.phase == phAttrs {
			e.closeAttrs(top)
		}
		if f.sure&tab.propMask == 0 && f.pend == 0 && e.skipDead(top, k) {
			break
		}
		switch k {
		case token.BeginElement:
			e.pushElement(id, raw)
		case token.BeginDocument:
			sure, inh, ctrParent, ctrSelf := f.sure, f.maybe()&^f.sure, f.ctrParent, f.ctrSelf
			d := e.open(id)
			d.doc, d.phase, d.sure, d.inh, d.ctrParent, d.ctrSelf = true, phContent, sure, inh, ctrParent, ctrSelf
		case token.Text:
			if len(e.watch) != 0 || tab.kindAtoms[atomText] != 0 && e.frames[f.ctrSelf].want&tab.kindAtoms[atomText] != 0 {
				e.onText(int(f.ctrSelf), raw)
			}
		}
	default:
		return e.fail(errMalformedStream)
	}
	return !e.stopped
}

// skipDead starts skipping at content token k of frame top if the frame is a
// dead subtree: its own predicates are decided, nothing below it can advance
// a step or propagate, and no string-value watcher is open. From here to its
// end token there are no frames and no views. (Out of line: onToken's hot
// path pre-filters with the two tests that fail for every frame under `//`.)
func (e *scanExec) skipDead(top int, k token.Kind) bool {
	f, tab := &e.frames[top], &e.prog.tab
	live := f.sure | f.wait | f.inh
	if top == 0 || f.pend != 0 || len(e.watch) != 0 || live&^tab.acceptAllMask != 0 || live&tab.propMask != 0 {
		return false
	}
	e.pop(top)
	e.skip = 1
	if k.IsBegin() {
		e.skip = 2
	}
	return true
}

// fail stops the scan with err.
func (e *scanExec) fail(err error) bool {
	e.err, e.stopped = err, true
	return false
}

func (e *scanExec) pushElement(id core.NodeID, raw []byte) {
	_, name, _, _, err := e.dict.View(raw)
	if err != nil {
		e.fail(err)
		return
	}
	tab := &e.prog.tab
	pi := len(e.frames) - 1
	li := int(e.frames[pi].ctrSelf)
	if l := &e.frames[li]; tab.kindAtoms[atomChild] != 0 && l.want&tab.kindAtoms[atomChild]&^l.sat != 0 {
		sat := l.sat
		for m := l.want & tab.kindAtoms[atomChild] &^ l.sat; m != 0; m &= m - 1 {
			a := bits.TrailingZeros64(m)
			switch at := &e.prog.atoms[a]; {
			case string(name) != at.name:
			case at.has && e.capture == nil:
				l.sat |= 1 << a
			default: // a literal to compare with, or a fill's value to collect
				e.watch = append(e.watch, watcher{frame: pi + 1, atom: a, off: len(e.capBuf), ok: true})
			}
		}
		if l.sat != sat {
			e.decide(li)
		}
	}
	parent := &e.frames[pi]
	maybe := parent.maybe()
	sure := parent.sure & tab.propMask
	inh := maybe & tab.propMask
	var pend, wait, want uint64
	for m := (parent.sure | maybe) &^ tab.acceptAllMask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		st := tab.stepOf[s]
		if st.name != "" && string(name) != st.name {
			continue
		}
		t := uint64(1) << (s + 1)
		switch {
		case len(st.preds) != 0:
			pend |= t
			want |= st.atoms
		case parent.sure&(1<<s) != 0:
			sure |= t
		default:
			wait |= t
		}
	}
	if sure|pend|wait|inh == 0 && len(e.watch) == 0 {
		e.skip = 1 // dead on arrival: not even a frame
		return
	}
	f := e.open(id)
	f.sure, f.pend, f.wait, f.inh, f.want = sure, pend, wait&^sure, inh&^sure, want
	f.ctrParent, f.ctrSelf = int32(li), int32(pi+1)
}

func (e *scanExec) onAttribute(top int, id core.NodeID, raw []byte) {
	tab := &e.prog.tab
	f := &e.frames[top]
	if f.phase != phAttrs {
		e.fail(errMalformedStream) // an attribute after content
		return
	}
	live := f.sure | f.maybe()
	if f.want&tab.kindAtoms[atomAttr] == 0 && (len(tab.attrCaptures) == 0 || live&tab.acceptAllMask == 0) {
		return
	}
	_, name, val, _, err := e.dict.View(raw)
	if err != nil {
		e.fail(err)
		return
	}
	sat := f.sat
	if e.capture != nil {
		sat = 0 // a fill wants every value of the attribute, not the first
	}
	for m := f.want & tab.kindAtoms[atomAttr] &^ sat; m != 0; m &= m - 1 {
		a := bits.TrailingZeros64(m)
		if at := &e.prog.atoms[a]; string(name) == at.name && (at.has || string(val) == e.lits[at.slot]) {
			f.sat |= 1 << a
			if e.capture != nil {
				e.captured(top, val)
			}
		}
	}
	var hit uint64
	for i := range tab.attrCaptures {
		if ac := &tab.attrCaptures[i]; live&ac.acceptMask != 0 && string(name) == ac.name {
			hit |= ac.acceptMask
		}
	}
	if hit != 0 {
		f.attrBuf = append(f.attrBuf, attrHit{mask: hit, id: id})
	}
}

// onText feeds a text child of the element of frame li to the open
// string-value watchers and to the element's own text atoms.
func (e *scanExec) onText(li int, raw []byte) {
	l := &e.frames[li]
	texts := l.want & e.prog.tab.kindAtoms[atomText] &^ l.sat
	_, _, val, _, err := e.dict.View(raw)
	if err != nil {
		e.fail(err)
		return
	}
	if e.capture != nil {
		if texts != 0 {
			e.captured(li, val)
		} else {
			e.capBuf = append(e.capBuf, val...)
		}
		return
	}
	// The text is part of the string-value of every watched open element.
	for i := range e.watch {
		w := &e.watch[i]
		if !w.ok {
			continue
		}
		if rest := e.lits[e.prog.atoms[w.atom].slot][w.off:]; len(val) <= len(rest) && rest[:len(val)] == string(val) {
			w.off += len(val)
		} else {
			w.ok = false
		}
	}
	for m := texts; m != 0; m &= m - 1 {
		if a := bits.TrailingZeros64(m); string(val) == e.lits[e.prog.atoms[a].slot] {
			l.sat |= 1 << a
		}
	}
	if l.sat&texts != 0 {
		e.decide(li)
	}
}

// captured hands a fill's collector one value of the atom on the element of
// frame fi. Child and text values arrive when the child ends, so an element
// can come after one nested inside it: the rank lets the collector restore
// document order. (Attribute values arrive in document order, all ranks equal:
// nothing is ever queued.)
func (e *scanExec) captured(fi int, val []byte) {
	f := &e.frames[fi]
	if !e.capture(f.id, e.frames[f.ctrParent].id, f.candLo, val) {
		e.stopped = true
	}
}

// closeAttrs ends frame fi's attribute block: attribute atoms are final, and
// the element and its captured attributes take their place in the output.
func (e *scanExec) closeAttrs(fi int) {
	f := &e.frames[fi]
	f.phase = phContent
	if f.pend == 0 && (f.sure|f.wait|f.inh)&e.prog.tab.acceptAllMask == 0 {
		return // nothing to decide, nothing to place
	}
	e.decide(fi)
	e.place(f.id, fi, e.prog.tab.acceptElem)
	for _, h := range f.attrBuf {
		e.place(h.id, fi, h.mask)
	}
	f.attrBuf = f.attrBuf[:0]
}

// place emits id, or queues it, if it matches when any state of mask is
// achieved on frame fi.
func (e *scanExec) place(id core.NodeID, fi int, mask uint64) {
	f := &e.frames[fi]
	switch {
	case mask&f.sure != 0:
		if e.head == len(e.cands) {
			e.out(id)
			return
		}
		e.cands = append(e.cands, cand{id: id, frame: candConfirmed})
	case mask&f.maybe() != 0:
		e.cands = append(e.cands, cand{id: id, frame: fi, mask: mask})
	}
}

func (e *scanExec) out(id core.NodeID) {
	if !e.stopped && !e.emit(id) {
		e.stopped = true
	}
}

// decide evaluates frame fi's undecided own predicates against what the scan
// has seen so far — everything, once the frame has ended — and settles
// whatever that decides.
func (e *scanExec) decide(fi int) {
	f := &e.frames[fi]
	if f.pend == 0 {
		return
	}
	p := &e.frames[fi-1]
	pend := f.pend
	f.want = 0
	for m := pend; m != 0; m &= m - 1 {
		t := bits.TrailingZeros64(m)
		st := e.prog.tab.stepOf[t-1]
		switch e.evalPreds(f, st) {
		case triUnknown:
			f.want |= st.atoms
			continue
		case triTrue:
			if src := uint64(1) << (t - 1); p.sure&src != 0 {
				f.sure |= 1 << t
			} else if p.maybe()&src != 0 {
				f.wait |= 1 << t
			}
		}
		f.pend &^= 1 << t
	}
	if f.pend != pend {
		e.settle(fi)
	}
}

// evalPreds evaluates one step's predicate list, in source order, for the
// element of frame f.
func (e *scanExec) evalPreds(f *xframe, st *scanStep) tri {
	for i := range st.preds {
		p := &st.preds[i]
		if p.pos == 0 {
			if v := e.evalNode(p.root, f); v != triTrue {
				return v
			}
			continue
		}
		// Positional predicates count, per parent, the candidates that passed
		// everything before them. Each element is counted once, and in
		// document order: it is fully decided before its next sibling begins.
		bit := uint8(1) << p.ctr
		if f.counted&bit == 0 {
			f.counted |= bit
			ctr := &e.frames[f.ctrParent].counters[p.ctr]
			*ctr++
			if int(*ctr) == p.pos {
				f.passed |= bit
			}
		}
		if f.passed&bit == 0 {
			return triFalse
		}
	}
	return triTrue
}

func (e *scanExec) evalNode(i int, f *xframe) tri {
	n := &e.prog.nodes[i]
	switch n.op {
	case opNot:
		return triTrue - e.evalNode(n.l, f)
	case opAnd:
		return min(e.evalNode(n.l, f), e.evalNode(n.r, f))
	case opOr:
		return max(e.evalNode(n.l, f), e.evalNode(n.r, f))
	}
	switch {
	case f.sat&(1<<n.l) != 0:
		return triTrue
	case f.phase == phEnded || e.prog.atoms[n.l].kind == atomAttr:
		return triFalse // decide never runs inside the attribute block
	}
	return triUnknown
}

// settle carries frame fi's newly decided states down the open frames below
// it, then resolves the held candidates that hang on any of them.
func (e *scanExec) settle(fi int) {
	for ci := fi; ci < len(e.frames); ci++ {
		c := &e.frames[ci]
		if ci > fi {
			p := &e.frames[ci-1]
			maybe := p.maybe()
			before := [4]uint64{c.sure, c.pend, c.wait, c.inh}
			// State t is achieved by stepping from the parent's t-1 (pend,
			// wait) or by propagation of the parent's t (inh).
			c.sure |= c.inh&p.sure | c.wait&(p.sure<<1)
			c.pend &= (p.sure | maybe) << 1
			c.wait &= maybe << 1
			c.inh &= maybe
			if before == [4]uint64{c.sure, c.pend, c.wait, c.inh} {
				break
			}
			if c.pend == 0 {
				c.want = 0
			}
		}
		c.wait &^= c.sure
		c.inh &^= c.sure
	}
	for i := max(int(e.frames[fi].candLo)-e.candOff, e.head); i < len(e.cands); i++ {
		c := &e.cands[i]
		if c.frame < fi {
			continue
		}
		if f := &e.frames[c.frame]; c.mask&f.sure != 0 {
			c.frame = candConfirmed
		} else if c.mask&f.maybe() == 0 {
			c.frame = candDropped
		}
	}
	for e.head < len(e.cands) && e.cands[e.head].frame < 0 {
		if e.cands[e.head].frame == candConfirmed {
			e.out(e.cands[e.head].id)
		}
		e.head++
	}
	if e.head == len(e.cands) {
		e.candOff += e.head
		e.cands, e.head = e.cands[:0], 0
	}
}

// pop closes the top frame: its string-value watchers report to the
// enclosing element, its own predicates are forced to a decision, and
// candidates whose remaining states hang on the parent are re-homed there.
func (e *scanExec) pop(top int) {
	f := &e.frames[top]
	if f.phase != phAttrs && f.maybe() == 0 && (len(e.watch) == 0 || e.watch[len(e.watch)-1].frame != top) {
		e.frames = e.frames[:top] // decided, unwatched: nothing hangs on it
		return
	}
	li := int(f.ctrParent)
	sat := e.frames[li].sat
	for n := len(e.watch); n > 0 && e.watch[n-1].frame == top; n-- {
		w := e.watch[n-1]
		e.watch = e.watch[:n-1]
		switch {
		case e.capture != nil:
			e.captured(li, e.capBuf[w.off:])
			if n == 1 {
				e.capBuf = e.capBuf[:0] // no enclosing watcher needs the bytes
			}
		case w.ok && w.off == len(e.lits[e.prog.atoms[w.atom].slot]):
			e.frames[li].sat |= 1 << w.atom
		}
	}
	if f.phase == phAttrs {
		e.closeAttrs(top)
	}
	f.phase = phEnded
	e.decide(top)
	if f.wait|f.inh != 0 {
		for i := max(int(f.candLo)-e.candOff, e.head); i < len(e.cands); i++ {
			if c := &e.cands[i]; c.frame == top {
				c.frame, c.mask = top-1, (c.mask&f.wait)>>1|c.mask&f.inh
			}
		}
	}
	e.frames = e.frames[:top]
	if e.frames[li].sat != sat {
		e.decide(li)
	}
}

// finish reports how the scan ended: a stream that did not return to the
// root level is malformed unless the consumer stopped it.
func (e *scanExec) finish() error {
	if e.stopped {
		return e.err
	}
	if len(e.frames) != 1 || e.skip != 0 {
		return errMalformedStream
	}
	if e.frames[0].phase == phAttrs {
		e.closeAttrs(0) // an anchored scan of a lone attribute
	}
	return nil
}

// runProgram executes prog, its literal slots bound to lits, against the
// store, emitting matching node ids in document order. anchor == InvalidNode
// scans the whole store; otherwise the scan covers only the anchor's subtree
// (the anchor acting as the context node, exactly like evaluating against
// BuildDoc(ReadNode(anchor))). emit returning false stops the scan early.
// fill is nil except for a fill, which collects the atom's values and counts
// the tokens read.
func runProgram(ctx context.Context, s *core.Store, prog *scanProgram, lits []string, anchor core.NodeID, emit func(core.NodeID) bool, fill *tableBuilder) error {
	e := newScanExec(prog, lits, emit)
	e.dict = s.Dict()
	defer e.release()
	var err error
	if fill != nil {
		e.capture = fill.capture
		err = s.ScanRawCtx(ctx, func(id core.NodeID, raw []byte) bool {
			fill.tokens++
			return e.onToken(id, raw)
		})
	} else if anchor == core.InvalidNode {
		err = s.ScanRawCtx(ctx, e.onToken)
	} else {
		err = s.ScanNodeRawCtx(ctx, anchor, e.onToken)
	}
	if err != nil {
		return err
	}
	return e.finish()
}

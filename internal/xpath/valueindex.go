package xpath

// The lazy value index (DESIGN §16): the paper's Partial Index — "a
// combination between a real index and a cache" — applied to content. A
// probe-shape plan (Plan.probeKey) scans the first time its shape is seen;
// asked again with no write in between it runs the fill scan, which captures
// every value the attribute takes along the path and leaves a value table
// behind; from then until the next write every literal of the shape is a map
// lookup. Validity is the store's generation, read before and after the fill
// scan. Tables and markers are ordinary plan-cache entries.

import (
	"context"

	"repro/internal/core"
)

// valueTable is one shape's answers at generation gen: for every value the
// attribute takes on the shape's path, the elements carrying it, in document
// order. Immutable once built.
type valueTable struct {
	gen uint64
	ids map[string]*[]core.NodeID
}

// shapeMark remembers that a shape was asked at generation gen: seen once (the
// next ask at gen fills), being filled by one reader (the others scan, they do
// not build the same table beside it), or abandoned — its table outgrew its
// bound at gen.
type shapeMark struct {
	gen   uint64
	state markState
}

type markState uint8

const (
	markSeen markState = iota
	markFilling
	markAbandoned
)

// Approximate heap bytes of a table: per distinct value (map slot, key, list
// header and first block) and per id.
const (
	valueCost = 96
	idCost    = 8
)

// unbudgetedTableBytes bounds one table when no memory budget does (the
// default): without it `//*[@id='x']` would grow the heap with the store, per
// shape. The plan cache's entry cap bounds how many tables there are.
const unbudgetedTableBytes = 4 << 20

// answer is the pushdown result for lit (limit as in Plan.pushdown). The slice
// is clipped to its length: a caller's append copies, never writes the table.
func (t *valueTable) answer(lit string, limit int) ([]core.NodeID, int) {
	var l []core.NodeID
	if p := t.ids[lit]; p != nil {
		l = *p
	}
	n := len(l)
	switch {
	case limit == 0:
		return nil, n
	case limit > 0 && limit < n:
		n = limit
	}
	return l[:n:n], n
}

// tableBuilder collects a fill scan's captures. max bounds the table's cost: a
// fill that passes it is abandoned mid-scan.
type tableBuilder struct {
	ids       map[string]*[]core.NodeID
	cost, max int64
}

func (b *tableBuilder) capture(id core.NodeID, val []byte) bool {
	p := b.ids[string(val)]
	if p == nil {
		p = new([]core.NodeID)
		b.ids[string(val)] = p
		b.cost += valueCost + int64(len(val))
	}
	if n := len(*p); n == 0 || (*p)[n-1] != id { // one element may carry the value twice
		*p = append(*p, id)
		b.cost += idCost
	}
	return !b.over()
}

func (b *tableBuilder) over() bool { return b.cost > b.max }

// probe answers an un-anchored probe-shape plan from its shape's value table,
// building the table on the second ask of a generation. ok == false: the
// caller runs the literal scan (already counted as a miss). A hit performs no
// store operation: no lock, no admission slot.
func (p *Plan) probe(ctx context.Context, s *core.Store, limit int) (ids []core.NodeID, n int, ok bool, err error) {
	pc, q, lit := s.PlanCache(), s.QueryCounters(), p.prog.atoms[0].lit
	gen := s.Generation()
	v, _ := pc.Get(p.probeKey)
	if t, isTable := v.(*valueTable); isTable && t.gen == gen {
		q.NoteValueHit()
		ids, n = t.answer(lit, limit)
		return ids, n, true, nil
	}
	mark, isMark := v.(shapeMark)
	if !isMark || mark.gen != gen {
		pc.Replace(p.probeKey, v, shapeMark{gen: gen}, 0) // first sight at gen
	} else if mark.state == markSeen && pc.Replace(p.probeKey, mark, shapeMark{gen, markFilling}, 0) {
		return p.fill(ctx, s, gen, limit)
	}
	q.NoteValueMiss(false, false)
	return nil, 0, false, nil
}

// fill runs the fill scan for the one reader that turned the shape's mark to
// markFilling, answers from the fresh table and publishes it if no write was
// admitted meanwhile. An abandoned fill answers nothing: the caller scans.
func (p *Plan) fill(ctx context.Context, s *core.Store, gen uint64, limit int) (ids []core.NodeID, n int, ok bool, err error) {
	pc, q := s.PlanCache(), s.QueryCounters()
	b := tableBuilder{ids: make(map[string]*[]core.NodeID), max: pc.Share()}
	if b.max == 0 {
		b.max = unbudgetedTableBytes
	}
	err = runProgram(ctx, s, p.fillProgram(), core.InvalidNode, func(core.NodeID) bool { return true }, b.capture)
	switch {
	case err != nil:
		pc.Replace(p.probeKey, shapeMark{gen, markFilling}, shapeMark{gen: gen}, 0) // the next ask may try again
		return nil, 0, true, err
	case b.over():
		pc.Replace(p.probeKey, shapeMark{gen, markFilling}, shapeMark{gen, markAbandoned}, 0)
		q.NoteValueMiss(false, true)
		return nil, 0, false, nil
	}
	q.NoteValueMiss(true, false)
	t := &valueTable{gen: gen, ids: b.ids}
	if s.Generation() == gen {
		pc.Put(p.probeKey, t, b.cost)
	}
	ids, n = t.answer(p.prog.atoms[0].lit, limit)
	return ids, n, true, nil
}

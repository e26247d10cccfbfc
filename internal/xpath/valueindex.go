package xpath

// The lazy value index (DESIGN §16): the paper's Partial Index — "a
// combination between a real index and a cache" — applied to content. A
// probe-shape plan (Plan.probeKey) scans the first time its head is seen;
// asked again with no write in between it runs the fill scan, which captures
// every value the head's atom — an attribute, a child's string-value, a text
// child — takes along the path and leaves a value table behind; from then
// until the next write every literal of the head is a map lookup, plus one
// anchored subtree read per head element when steps follow the head. Validity
// is the store's generation, read before and after the fill scan, and after
// the subtree reads of a hit. Tables and markers are ordinary plan-cache
// entries.

import (
	"context"
	"sort"

	"repro/internal/core"
)

// valueTable is one head's answers at generation gen: for every value the atom
// takes on the head's path, the elements carrying it. Immutable once built.
type valueTable struct {
	gen    uint64
	tokens int // what the fill scan read: the cost of the scan a hit replaces
	vals   map[string]*valueList
}

// valueList is the elements carrying one value, in document order, and beside
// each its parent — what a positional predicate counts by.
type valueList struct {
	ids, parents []core.NodeID
	ords         []int32 // while filling: each element's document-order rank
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
// headers and first blocks) and per element (id and parent).
const (
	valueCost = 96
	idCost    = 16
)

// unbudgetedTableBytes bounds one table when no memory budget does (the
// default): without it `//*[@id='x']` would grow the heap with the store, per
// shape. The plan cache's entry cap bounds how many tables there are.
const unbudgetedTableBytes = 4 << 20

// tailReadTokens prices one anchored read of a head element in tokens of the
// scan it replaces: the rest of a hit is run anchored only while the elements
// left × tailReadTokens stay under the tokens the fill read. Measured at the
// crossover by BenchmarkValueIndexTailCrossover (EXPERIMENTS E13): over 1 000
// orders = 44 203 tokens a read is ≈2.0 µs, the scan ≈14 ns a token; 250
// elements read in 0.48 ms against 0.61 ms scanned, 333 tie at 0.66 ms, 500
// take 1.0 ms against 0.67 ms.
const tailReadTokens = 140

// nth applies [pos]: of the elements sharing a parent, the pos-th. One pass;
// the first parent is counted in place, so a flat document needs no map.
func (l *valueList) nth(pos int) []core.NodeID {
	var out []core.NodeID
	first := 0                     // elements met under parents[0]
	var others map[core.NodeID]int // and under every other parent
	for i, par := range l.parents {
		var c int
		if par == l.parents[0] {
			first++
			c = first
		} else {
			if others == nil {
				others = make(map[core.NodeID]int)
			}
			others[par]++
			c = others[par]
		}
		if c != pos {
			continue
		}
		if out == nil {
			out = l.ids[i : i+1 : i+1] // clipped: an append copies, never writes the table
		} else {
			out = append(out, l.ids[i])
		}
	}
	return out
}

// Sorting a list by rank (sort.Interface).
func (l *valueList) Len() int           { return len(l.ids) }
func (l *valueList) Less(i, j int) bool { return l.ords[i] < l.ords[j] }
func (l *valueList) Swap(i, j int) {
	l.ids[i], l.ids[j] = l.ids[j], l.ids[i]
	l.parents[i], l.parents[j] = l.parents[j], l.parents[i]
	l.ords[i], l.ords[j] = l.ords[j], l.ords[i]
}

// settle puts a filled list in document order. A child's value is captured
// when the child ends, so an element whose value child follows a nested
// element carrying the same value arrives after it — and twice, around it, if
// two of its children carry the value.
func (l *valueList) settle() {
	if !sort.IsSorted(l) {
		sort.Sort(l)
		n := 1
		for i := 1; i < len(l.ids); i++ {
			if l.ids[i] != l.ids[n-1] {
				l.ids[n], l.parents[n] = l.ids[i], l.parents[i]
				n++
			}
		}
		l.ids, l.parents = l.ids[:n], l.parents[:n]
	}
	l.ords = nil
}

// tableBuilder collects a fill scan's captures. max bounds the table's cost: a
// fill that passes it is abandoned mid-scan.
type tableBuilder struct {
	vals      map[string]*valueList
	cost, max int64
	tokens    int
}

func (b *tableBuilder) capture(id, parent core.NodeID, ord int32, val []byte) bool {
	l := b.vals[string(val)]
	if l == nil {
		l = new(valueList)
		b.vals[string(val)] = l
		b.cost += valueCost + int64(len(val))
	}
	if n := len(l.ids); n == 0 || l.ids[n-1] != id { // one element may carry the value twice
		l.ids, l.parents, l.ords = append(l.ids, id), append(l.parents, parent), append(l.ords, ord)
		b.cost += idCost
	}
	return !b.over()
}

func (b *tableBuilder) over() bool { return b.cost > b.max }

// table is what the finished fill scan leaves behind.
func (b *tableBuilder) table(gen uint64) *valueTable {
	for _, l := range b.vals {
		l.settle()
	}
	return &valueTable{gen: gen, tokens: b.tokens, vals: b.vals}
}

// probe answers an un-anchored probe-shape plan from its head's value table,
// building the table on the second ask of a generation. ok == false: the
// caller runs the literal scan (already counted as a miss). A hit with no rest
// performs no store operation: no lock, no admission slot. A limited ask
// (limit > 0) uses a table but never builds one: its literal scan stops at the
// first match, a fill reads the whole document.
func (b Bound) probe(ctx context.Context, s *core.Store, limit int) (ids []core.NodeID, n int, ok bool, err error) {
	pc, q := s.PlanCache(), s.QueryCounters()
	gen := s.Generation()
	v, _ := pc.Get(b.probeKey)
	mark, isMark := v.(shapeMark)
	if t, isTable := v.(*valueTable); isTable && t.gen == gen {
		if ids, n, ok, err = b.answer(ctx, s, t, limit); ok {
			q.NoteValueHit()
			return ids, n, true, err
		}
	} else if !isMark || mark.gen != gen {
		pc.Replace(b.probeKey, v, shapeMark{gen: gen}, 0) // first sight at gen
	} else if limit <= 0 && mark.state == markSeen && pc.Replace(b.probeKey, mark, shapeMark{gen, markFilling}, 0) {
		return b.fill(ctx, s, gen, limit)
	}
	q.NoteValueMiss(false, false)
	return nil, 0, false, nil
}

// fill runs the fill scan for the one reader that turned the shape's mark to
// markFilling, publishes the table if no write was admitted meanwhile and
// answers from it. An abandoned fill answers nothing: the caller scans.
func (b Bound) fill(ctx context.Context, s *core.Store, gen uint64, limit int) (ids []core.NodeID, n int, ok bool, err error) {
	pc, q := s.PlanCache(), s.QueryCounters()
	tb := tableBuilder{vals: make(map[string]*valueList), max: pc.Share()}
	if tb.max == 0 {
		tb.max = unbudgetedTableBytes
	}
	err = runProgram(ctx, s, b.fillProgram(), nil, core.InvalidNode, func(core.NodeID) bool { return true }, &tb)
	switch {
	case err != nil:
		pc.Replace(b.probeKey, shapeMark{gen, markFilling}, shapeMark{gen: gen}, 0) // the next ask may try again
		return nil, 0, true, err
	case tb.over():
		pc.Replace(b.probeKey, shapeMark{gen, markFilling}, shapeMark{gen, markAbandoned}, 0)
		q.NoteValueMiss(false, true)
		return nil, 0, false, nil
	}
	q.NoteValueMiss(true, false)
	t := tb.table(gen)
	if s.Generation() == gen {
		pc.Put(b.probeKey, t, tb.cost)
	}
	return b.answer(ctx, s, t, limit)
}

// answer is the pushdown result from table t (limit as in Bound.pushdown):
// look up the literal, apply [N], then run the rest anchored at each element
// left. ok == false hands the query to the literal scan — the oracle — in
// three cases, all decided from what the code holds:
//
//   - elements left may nest (more than one, a `//` in the head): anchored
//     results could come out of document order, or twice;
//   - so many are left that reading each subtree costs more than the scan;
//   - a write was admitted before the last subtree read returned. The table
//     alone answers for the generation read before the lookup, but subtree
//     reads see the store as it is now: only a generation still equal to the
//     table's after them says that they, too, saw the table's state. A head
//     element deleted meanwhile fails its read and is caught by the same test.
func (b Bound) answer(ctx context.Context, s *core.Store, t *valueTable, limit int) (ids []core.NodeID, n int, ok bool, err error) {
	if l := t.vals[b.lits[b.prog.atoms[0].slot]]; l != nil {
		ids = l.ids
		if b.probePos > 0 {
			ids = l.nth(b.probePos)
		}
	}
	if b.rest == nil {
		n = len(ids)
		switch {
		case limit == 0:
			return nil, n, true, nil
		case limit > 0 && limit < n:
			n = limit
		}
		// Clipped to its length: a caller's append copies, never writes the table.
		return ids[:n:n], n, true, nil
	}
	if len(ids) > 1 && b.headDesc || len(ids)*tailReadTokens > t.tokens {
		return nil, 0, false, nil
	}
	var r struct { // as in Bound.pushdown
		ids []core.NodeID
		n   int
	}
	emit := func(id core.NodeID) bool {
		r.n++
		if limit != 0 {
			r.ids = append(r.ids, id)
		}
		return r.n != limit
	}
	for i := 0; i < len(ids) && err == nil && (limit <= 0 || r.n < limit); i++ {
		err = runProgram(ctx, s, b.rest, b.lits, ids[i], emit, nil)
	}
	if s.Generation() != t.gen {
		return nil, 0, false, nil
	}
	return r.ids, r.n, true, err
}

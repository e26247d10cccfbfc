package core

import (
	"context"
	"fmt"

	"repro/internal/token"
)

// Structural navigation — the extension sketched in the paper's future-work
// section: "Structural properties of the actual elements of the XQuery
// DataModel, such as hierarchical or sibling relationships can also be
// maintained by the Partial Index."
//
// All relations are computed from the flat token sequence (no parent
// pointers are stored), and the partial index memorizes what the
// computation discovers: sibling navigation reuses the cached end-token
// positions, and parent links — stable for the lifetime of a node — are
// cached unversioned.
//
// Each primitive (Parent, FirstChild, NextSibling, Attributes,
// CompareDocOrder) is one gated operation; the composites (PrevSibling,
// Children) chain gated primitives sequentially and hold at most one
// admission slot at a time.

// Parent returns the parent node of id (ok=false for top-level nodes).
// Attributes' parent is their owner element.
func (s *Store) Parent(id NodeID) (NodeID, bool, error) {
	return s.ParentCtx(context.Background(), id)
}

// ParentCtx is Parent under a context.
func (s *Store) ParentCtx(ctx context.Context, id NodeID) (parent NodeID, ok bool, err error) {
	err = s.readOp(ctx, func(cur *rangeCursor) error {
		// Cached parent links survive all mutations that keep the child
		// alive: deleting or replacing the parent removes the whole subtree,
		// so a live child's parent id can never be stale. The cache is gated
		// on the entry's begin-token validity, which any mutation that
		// removes the child necessarily invalidates.
		if s.partial != nil {
			if e, hit := s.partial.lookup(id); hit && e.hasParent {
				if s.beginRange(e) != nil {
					s.partial.hit()
					parent, ok = e.parentID, e.parentID != InvalidNode
					return nil
				}
			}
		}
		begin, _, _, err := s.locateBegin(cur, id)
		if err != nil {
			return err
		}
		if parent, ok, err = s.findEnclosing(cur, begin); err == nil && s.partial != nil {
			s.partial.setParent(id, parent) // InvalidNode for a top-level node
		}
		return err
	})
	return parent, ok, err
}

// findEnclosing locates the node whose begin token is still open at pos
// (the parent): scan the prefix of pos's range tracking a begin stack, then
// walk earlier ranges leftward. Unmatched end tokens in a later range close
// begins in earlier ranges, so a deficit is carried: an earlier range's top
// `deficit` unmatched begins are already closed and must be skipped.
func (s *Store) findEnclosing(cur *rangeCursor, pos tokenPos) (NodeID, bool, error) {
	ri := pos.ri
	limit := pos.byteOff
	deficit := 0
	for {
		stack, rangeDeficit, err := s.scanOpenBegins(cur, ri, limit)
		if err != nil {
			return InvalidNode, false, err
		}
		if len(stack) > deficit {
			return stack[len(stack)-1-deficit], true, nil
		}
		deficit += rangeDeficit - len(stack)
		if err := cur.ctx.Err(); err != nil {
			return InvalidNode, false, err
		}
		prev, ok, err := s.prevRangeInfo(ri)
		if err != nil {
			return InvalidNode, false, err
		}
		if !ok {
			return InvalidNode, false, nil // top level
		}
		ri = prev
		limit = ri.bytes
	}
}

// scanOpenBegins scans the first `limit` bytes of ri and returns the node
// ids of the begins left unmatched within the window (bottom-up) and the
// number of end tokens that had no matching begin inside the window.
func (s *Store) scanOpenBegins(cur *rangeCursor, ri *rangeInfo, limit int) ([]NodeID, int, error) {
	var stack []NodeID
	unmatchedEnds := 0
	next := ri.start
	scanned := uint64(0)
	defer func() { s.tokensScanned.Add(scanned) }()
	cur.expect(ri, 0, limit)
	for off := 0; off < limit; {
		if scanned%locateCheckTokens == locateCheckTokens-1 {
			if err := cur.ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		raw, err := cur.token(ri, off)
		if err != nil {
			return nil, 0, err
		}
		off += len(raw)
		scanned++
		k := token.KindOf(raw[0])
		var nodeID NodeID
		if k.StartsNode() {
			nodeID = next
			next++
		}
		if k.IsBegin() {
			stack = append(stack, nodeID)
		} else if k.IsEnd() {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			} else {
				unmatchedEnds++
			}
		}
	}
	return stack, unmatchedEnds, nil
}

// FirstChild returns the first child node of element id (attributes are not
// children; use Attributes). ok=false when the element is empty.
func (s *Store) FirstChild(id NodeID) (NodeID, bool, error) {
	return s.FirstChildCtx(context.Background(), id)
}

// FirstChildCtx is FirstChild under a context.
func (s *Store) FirstChildCtx(ctx context.Context, id NodeID) (child NodeID, ok bool, err error) {
	err = s.readOp(ctx, func(cur *rangeCursor) error {
		begin, k, _, err := s.locateBegin(cur, id)
		if err != nil || !k.IsBegin() || k == token.BeginAttribute {
			return err // leaves and attributes have no children
		}
		pos, err := advance(cur, begin)
		if err != nil {
			return err
		}
		if pos, err = s.skipAttributes(cur, pos); err != nil {
			return err
		}
		child, ok, err = s.nodeAt(cur, pos) // none: the element is empty
		return err
	})
	return child, ok, err
}

// NextSibling returns the node following id under the same parent
// (attributes have no siblings in this API).
func (s *Store) NextSibling(id NodeID) (NodeID, bool, error) {
	return s.NextSiblingCtx(context.Background(), id)
}

// NextSiblingCtx is NextSibling under a context.
func (s *Store) NextSiblingCtx(ctx context.Context, id NodeID) (sibling NodeID, ok bool, err error) {
	err = s.readOp(ctx, func(cur *rangeCursor) error {
		begin, k, e, err := s.locateBegin(cur, id)
		if err != nil || k == token.BeginAttribute {
			return err
		}
		end, err := s.locateEnd(cur, id, begin, k, e)
		if err != nil {
			return err
		}
		pos, err := advance(cur, end)
		if err != nil {
			return err
		}
		sibling, ok, err = s.nodeAt(cur, pos) // none: the parent closes here
		return err
	})
	return sibling, ok, err
}

// PrevSibling returns the node preceding id under the same parent.
func (s *Store) PrevSibling(id NodeID) (NodeID, bool, error) {
	return s.PrevSiblingCtx(context.Background(), id)
}

// PrevSiblingCtx is PrevSibling under a context. It is a composite: each
// step passes admission control on its own, so the walk never holds a slot
// across its whole duration.
func (s *Store) PrevSiblingCtx(ctx context.Context, id NodeID) (NodeID, bool, error) {
	// Computed via the parent: walk its children until id.
	parent, ok, err := s.ParentCtx(ctx, id)
	if err != nil {
		return InvalidNode, false, err
	}
	var cur NodeID
	if ok {
		cur, ok, err = s.FirstChildCtx(ctx, parent)
	} else {
		cur, ok, err = s.FirstNodeIDCtx(ctx)
	}
	if err != nil || !ok || cur == id {
		return InvalidNode, false, err
	}
	for {
		next, ok, err := s.NextSiblingCtx(ctx, cur)
		if err != nil {
			return InvalidNode, false, err
		}
		if !ok {
			return InvalidNode, false, fmt.Errorf("core: sibling walk missed node %d", id)
		}
		if next == id {
			return cur, true, nil
		}
		cur = next
	}
}

// Attributes returns the attribute node ids of element id in order.
func (s *Store) Attributes(id NodeID) ([]NodeID, error) {
	return s.AttributesCtx(context.Background(), id)
}

// AttributesCtx is Attributes under a context.
func (s *Store) AttributesCtx(ctx context.Context, id NodeID) (attrs []NodeID, err error) {
	err = s.readOp(ctx, func(cur *rangeCursor) error {
		begin, k, _, err := s.locateBegin(cur, id)
		if err != nil || k != token.BeginElement {
			return err
		}
		pos, err := advance(cur, begin)
		if err != nil {
			return err
		}
		for depth := 0; ; {
			var ok bool
			if pos, ok, err = s.normalizeForward(cur, pos); err != nil || !ok {
				return err
			}
			raw, err := cur.token(pos.ri, pos.byteOff)
			if err != nil {
				return err
			}
			k := token.KindOf(raw[0])
			if depth == 0 {
				if k != token.BeginAttribute {
					return nil
				}
				attrs = append(attrs, pos.ri.start+NodeID(pos.nodesBefore))
			}
			// Step one token, tracking attribute nesting across ranges.
			if k.IsBegin() {
				depth++
			} else if k.IsEnd() {
				depth--
			}
			pos = pos.past(k, len(raw))
		}
	})
	if err != nil {
		return nil, err
	}
	return attrs, nil
}

// Children returns all child node ids of element id, in document order.
func (s *Store) Children(id NodeID) ([]NodeID, error) {
	return s.ChildrenCtx(context.Background(), id)
}

// ChildrenCtx is Children under a context (a composite of gated steps).
func (s *Store) ChildrenCtx(ctx context.Context, id NodeID) ([]NodeID, error) {
	var out []NodeID
	cur, ok, err := s.FirstChildCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	for ok {
		out = append(out, cur)
		cur, ok, err = s.NextSiblingCtx(ctx, cur)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CompareDocOrder orders two live node ids by document position (-1, 0, 1)
// — the paper's §6.2: sequential ids are only insert-ordered, but the
// combination of range order in storage and id order inside ranges
// reconstructs document order at read time.
func (s *Store) CompareDocOrder(a, b NodeID) (int, error) {
	return s.CompareDocOrderCtx(context.Background(), a, b)
}

// CompareDocOrderCtx is CompareDocOrder under a context.
func (s *Store) CompareDocOrderCtx(ctx context.Context, a, b NodeID) (order int, err error) {
	err = s.readOp(ctx, func(cur *rangeCursor) error {
		posA, _, _, err := s.locateBegin(cur, a)
		if err != nil || a == b {
			return err
		}
		posB, _, _, err := s.locateBegin(cur, b)
		if err != nil {
			return err
		}
		order = 1
		if posA.ri == posB.ri {
			if posA.byteOff < posB.byteOff {
				order = -1
			}
			return nil
		}
		// Walk the range chain in document order; the range seen first wins.
		ri, ok, err := s.firstRange()
		for ; ok && err == nil; ri, ok, err = s.nextRangeInfo(cur.ctx, ri) {
			switch ri {
			case posA.ri:
				order = -1
				return nil
			case posB.ri:
				return nil
			}
		}
		if err == nil {
			err = fmt.Errorf("core: ranges of %d and %d not found in chain", a, b)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return order, nil
}

// normalizeForward moves a boundary position (at range end) forward to the
// first token of the next non-empty range, returning ok=false at the end of
// the sequence. Positions already on a token are returned unchanged.
func (s *Store) normalizeForward(cur *rangeCursor, pos tokenPos) (tokenPos, bool, error) {
	for pos.atRangeEnd() {
		nri, ok, err := s.nextRangeInfo(cur.ctx, pos.ri)
		if err != nil || !ok {
			return pos, false, err
		}
		pos = tokenPos{ri: nri}
	}
	return pos, true, nil
}

// nodeAt returns the id of the node that starts at pos, looking past a range
// boundary; ok=false when what follows is an end token (the enclosing node
// closes) or the end of the sequence.
func (s *Store) nodeAt(cur *rangeCursor, pos tokenPos) (NodeID, bool, error) {
	pos, ok, err := s.normalizeForward(cur, pos)
	if err != nil || !ok {
		return InvalidNode, false, err
	}
	k, err := cur.kind(pos)
	if err != nil || k.IsEnd() {
		return InvalidNode, false, err
	}
	return pos.ri.start + NodeID(pos.nodesBefore), true, nil
}

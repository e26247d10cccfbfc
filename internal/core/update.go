package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/token"
)

// XUpdate operations — the store interface of the paper's Table 1.
//
// Every insert allocates a fresh contiguous batch of node ids and creates
// exactly one new range, placed by placeRange (split.go); when the insertion
// point falls strictly inside an existing range, that range is split in two.
// This is the example walked through in Section 4.5 of the paper.
//
// Mutators enter through writeOp. The operation context governs only the
// locate phase — once a mutation starts applying (deleteSpan,
// insertFragment, record writes) it runs to completion regardless of the
// deadline, so a timeout can never leave a half-applied update behind.

func checkFragment(frag []Token) error {
	if err := token.ValidateFragment(frag); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFragment, err)
	}
	return nil
}

// Append adds a fragment at the end of the stored sequence (bulk load path).
// When Config.MaxRangeTokens > 0 the fragment is chopped into ranges of at
// most that many tokens — the granularity knob of Table 5. It returns the id
// of the fragment's first node.
func (s *Store) Append(frag []Token) (NodeID, error) {
	return s.AppendCtx(context.Background(), frag)
}

// AppendCtx is Append under a context (admission control only — appends
// have no locate phase to cancel).
func (s *Store) AppendCtx(ctx context.Context, frag []Token) (first NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	err = s.writeOp(ctx, func(*rangeCursor) error {
		first, err = s.appendLocked(frag)
		return err
	})
	if err != nil {
		return InvalidNode, err
	}
	return first, nil
}

// appendLocked is Append under writeOp.
func (s *Store) appendLocked(frag []Token) (NodeID, error) {
	chunk := s.cfg.MaxRangeTokens
	if chunk <= 0 {
		chunk = len(frag)
	}
	first := s.nextID
	for off := 0; off < len(frag); off += chunk {
		if _, err := s.newRange(tokenPos{}, frag[off:min(off+chunk, len(frag))]); err != nil {
			return InvalidNode, err
		}
	}
	s.inserts++
	return first, nil
}

// AppendStream bulk-loads tokens from a pull source with constant memory:
// tokens are buffered only up to the range granularity (Config.
// MaxRangeTokens, default 1024 for streams) and flushed range by range. The
// source returns io.EOF after the last token. The stream must form a
// well-formed fragment; violations are detected incrementally and abort the
// load mid-way (ranges already appended remain — callers wanting atomicity
// should stage into a fresh store).
func (s *Store) AppendStream(next func() (Token, error)) (first NodeID, err error) {
	err = s.writeOp(context.Background(), func(*rangeCursor) error {
		chunk := s.cfg.MaxRangeTokens
		if chunk <= 0 {
			chunk = 1024
		}
		first = s.nextID
		var buf []Token
		depth, sawAny := 0, false
		for {
			t, err := next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			// Incremental well-formedness: balance only (the full fragment
			// rules are enforced by the token source, typically xmltok).
			if t.IsBegin() {
				depth++
			} else if t.IsEnd() {
				depth--
				if depth < 0 {
					return fmt.Errorf("%w: end token without begin", ErrBadFragment)
				}
			} else if !t.StartsNode() {
				return fmt.Errorf("%w: invalid token kind %s", ErrBadFragment, t.Kind)
			}
			sawAny = true
			if buf = append(buf, t); len(buf) >= chunk {
				if _, err := s.newRange(tokenPos{}, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if depth != 0 {
			return fmt.Errorf("%w: %d unclosed begin token(s)", ErrBadFragment, depth)
		}
		if !sawAny {
			return fmt.Errorf("%w: empty stream", ErrBadFragment)
		}
		if len(buf) > 0 {
			if _, err := s.newRange(tokenPos{}, buf); err != nil {
				return err
			}
		}
		s.inserts++
		return nil
	})
	if err != nil {
		return InvalidNode, err
	}
	return first, nil
}

// Compact is a maintenance operation: one pass over the range chain merging
// every adjacent pair whose id intervals are contiguous (or where one side
// has no ids), up to maxRangeBytes per merged range (0 = a page's worth).
// It undoes update-driven fragmentation — the offline counterpart of the
// adaptive CoalesceBytes policy.
func (s *Store) Compact(maxRangeBytes int) (merged int, err error) {
	if maxRangeBytes <= 0 {
		maxRangeBytes = s.cfg.PageSize
	}
	err = s.writeOp(context.Background(), func(*rangeCursor) error {
		ri, ok, err := s.firstRange()
		for ok && err == nil {
			var nxt *rangeInfo
			if nxt, ok, err = s.nextRangeInfo(context.Background(), ri); !ok || err != nil {
				break
			}
			var did bool
			if did, err = s.coalescePair(ri, nxt, maxRangeBytes); did {
				merged++ // ri absorbed its successor; try again from ri
			} else {
				ri = nxt
			}
		}
		return err
	})
	return merged, err
}

// insertFragment splices frag in immediately before pos, as one new range
// with fresh contiguous ids. Returns the first new id.
func (s *Store) insertFragment(pos tokenPos, frag []Token) (NodeID, error) {
	id, err := s.newRange(pos, frag)
	if err == nil {
		s.inserts++
	}
	return id, err
}

// locator finds the position an insert relative to node id goes before.
// The public inserts and Batch's share these, under writeOp.
type locator func(s *Store, cur *rangeCursor, id NodeID) (tokenPos, error)

// insertAt is every public insert of one fragment at a located position.
func (s *Store) insertAt(ctx context.Context, id NodeID, frag []Token, where locator) (first NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	err = s.writeOp(ctx, func(cur *rangeCursor) error {
		first, err = s.insertLocked(cur, id, frag, where)
		return err
	})
	if err != nil {
		return InvalidNode, err
	}
	return first, nil
}

// insertLocked splices frag in where the locator puts it.
func (s *Store) insertLocked(cur *rangeCursor, id NodeID, frag []Token, where locator) (NodeID, error) {
	pos, err := where(s, cur, id)
	if err != nil {
		return InvalidNode, err
	}
	return s.insertFragment(pos, frag)
}

// InsertBefore inserts frag as the preceding sibling(s) of node id.
func (s *Store) InsertBefore(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertBeforeCtx(context.Background(), id, frag)
}

// InsertBeforeCtx is InsertBefore under a context.
func (s *Store) InsertBeforeCtx(ctx context.Context, id NodeID, frag []Token) (NodeID, error) {
	return s.insertAt(ctx, id, frag, (*Store).before)
}

// before locates node id's begin token.
func (s *Store) before(cur *rangeCursor, id NodeID) (tokenPos, error) {
	pos, k, _, err := s.locateBegin(cur, id)
	if err == nil && k == token.BeginAttribute {
		err = ErrAttrContext
	}
	return pos, err
}

// InsertAfter inserts frag as the following sibling(s) of node id.
func (s *Store) InsertAfter(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertAfterCtx(context.Background(), id, frag)
}

// InsertAfterCtx is InsertAfter under a context.
func (s *Store) InsertAfterCtx(ctx context.Context, id NodeID, frag []Token) (NodeID, error) {
	return s.insertAt(ctx, id, frag, (*Store).after)
}

// after locates the token following node id's subtree.
func (s *Store) after(cur *rangeCursor, id NodeID) (tokenPos, error) {
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return tokenPos{}, err
	}
	if k == token.BeginAttribute {
		return tokenPos{}, ErrAttrContext
	}
	end, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return tokenPos{}, err
	}
	return advance(cur, end)
}

// InsertIntoFirst inserts frag as the first content of element id (after its
// attribute block).
func (s *Store) InsertIntoFirst(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertIntoFirstCtx(context.Background(), id, frag)
}

// InsertIntoFirstCtx is InsertIntoFirst under a context.
func (s *Store) InsertIntoFirstCtx(ctx context.Context, id NodeID, frag []Token) (NodeID, error) {
	return s.insertAt(ctx, id, frag, (*Store).intoFirst)
}

// intoFirst locates the first content position of element id.
func (s *Store) intoFirst(cur *rangeCursor, id NodeID) (tokenPos, error) {
	begin, k, _, err := s.locateBegin(cur, id)
	if err != nil {
		return tokenPos{}, err
	}
	if err := requireElement(k); err != nil {
		return tokenPos{}, err
	}
	pos, err := advance(cur, begin)
	if err != nil {
		return tokenPos{}, err
	}
	return s.skipAttributes(cur, pos)
}

// InsertIntoLast inserts frag as the last content of element id — the
// paper's running example (insert a <purchase-order> as the last child of
// the root).
func (s *Store) InsertIntoLast(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertIntoLastCtx(context.Background(), id, frag)
}

// InsertIntoLastCtx is InsertIntoLast under a context.
func (s *Store) InsertIntoLastCtx(ctx context.Context, id NodeID, frag []Token) (NodeID, error) {
	return s.insertAt(ctx, id, frag, (*Store).intoLast)
}

// intoLast locates element id's end token.
func (s *Store) intoLast(cur *rangeCursor, id NodeID) (tokenPos, error) {
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return tokenPos{}, err
	}
	if err := requireElement(k); err != nil {
		return tokenPos{}, err
	}
	return s.locateEnd(cur, id, begin, k, e)
}

func requireElement(k token.Kind) error {
	switch k {
	case token.BeginElement:
		return nil
	case token.BeginAttribute:
		return ErrIntoAttribute
	default:
		return fmt.Errorf("%w (found %s)", ErrNotElement, k)
	}
}

// deleteNodeLocked removes node id's subtree and returns the position where
// it used to be (ri == nil when the store became empty).
func (s *Store) deleteNodeLocked(cur *rangeCursor, id NodeID) (tokenPos, error) {
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return tokenPos{}, err
	}
	end, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return tokenPos{}, err
	}
	after, err := advance(cur, end)
	if err != nil {
		return tokenPos{}, err
	}
	pos, err := s.deleteSpan(begin, after)
	if err != nil {
		return tokenPos{}, err
	}
	if s.partial != nil {
		s.partial.removeNode(id)
	}
	s.deletes++
	return pos, nil
}

// DeleteNode removes node id and its entire subtree.
func (s *Store) DeleteNode(id NodeID) error {
	return s.DeleteNodeCtx(context.Background(), id)
}

// DeleteNodeCtx is DeleteNode under a context.
func (s *Store) DeleteNodeCtx(ctx context.Context, id NodeID) error {
	return s.writeOp(ctx, func(cur *rangeCursor) error {
		return s.deleteLocked(cur, id)
	})
}

// deleteLocked is DeleteNode under writeOp.
func (s *Store) deleteLocked(cur *rangeCursor, id NodeID) error {
	pos, err := s.deleteNodeLocked(cur, id)
	if err == nil {
		s.maybeCoalesce(pos.ri)
	}
	return err
}

// ReplaceNode replaces node id (and subtree) with frag, returning the first
// new id.
func (s *Store) ReplaceNode(id NodeID, frag []Token) (NodeID, error) {
	return s.ReplaceNodeCtx(context.Background(), id, frag)
}

// ReplaceNodeCtx is ReplaceNode under a context. When the node was all the
// store held, the fragment is placed in the emptied store.
func (s *Store) ReplaceNodeCtx(ctx context.Context, id NodeID, frag []Token) (NodeID, error) {
	return s.insertAt(ctx, id, frag, (*Store).deleteNodeLocked)
}

// ReplaceContent replaces the content of element id (children; the attribute
// block is preserved) with frag. A nil/empty frag empties the element.
func (s *Store) ReplaceContent(id NodeID, frag []Token) (NodeID, error) {
	return s.ReplaceContentCtx(context.Background(), id, frag)
}

// ReplaceContentCtx is ReplaceContent under a context.
func (s *Store) ReplaceContentCtx(ctx context.Context, id NodeID, frag []Token) (first NodeID, err error) {
	if len(frag) > 0 {
		if err := checkFragment(frag); err != nil {
			return InvalidNode, err
		}
	}
	err = s.writeOp(ctx, func(cur *rangeCursor) error {
		first, err = s.replaceContentLocked(cur, id, frag)
		return err
	})
	if err != nil {
		return InvalidNode, err
	}
	return first, nil
}

// replaceContentLocked is ReplaceContent under writeOp.
func (s *Store) replaceContentLocked(cur *rangeCursor, id NodeID, frag []Token) (NodeID, error) {
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return InvalidNode, err
	}
	if err := requireElement(k); err != nil {
		return InvalidNode, err
	}
	contentStart, err := advance(cur, begin)
	if err != nil {
		return InvalidNode, err
	}
	if contentStart, err = s.skipAttributes(cur, contentStart); err != nil {
		return InvalidNode, err
	}
	pos, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return InvalidNode, err
	}
	if contentStart.ri != pos.ri || contentStart.tokIdx != pos.tokIdx { // the element has content
		if pos, err = s.deleteSpan(contentStart, pos); err != nil {
			return InvalidNode, err
		}
		s.deletes++
	}
	if len(frag) == 0 {
		s.maybeCoalesce(pos.ri)
		return InvalidNode, nil
	}
	return s.insertFragment(pos, frag)
}

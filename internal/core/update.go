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
// exactly one new range; when the insertion point falls strictly inside an
// existing range, that range is split in two. This is the example walked
// through in Section 4.5 of the paper.
//
// Mutators pass admission control (beginOp) before taking the exclusive
// lock. The operation context governs only the locate phase — once a
// mutation starts applying (deleteSpan, insertFragment, record writes) it
// runs to completion regardless of the deadline, so a timeout can never
// leave a half-applied update behind.

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
func (s *Store) AppendCtx(ctx context.Context, frag []Token) (_ NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	_, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	chunk := s.cfg.MaxRangeTokens
	if chunk <= 0 {
		chunk = len(frag)
	}
	firstID := s.nextID
	for off := 0; off < len(frag); off += chunk {
		end := off + chunk
		if end > len(frag) {
			end = len(frag)
		}
		part := frag[off:end]
		n := token.NodeCount(part)
		start := s.allocIDs(n)
		tokenBytes := token.EncodeAll(part)
		ri := &rangeInfo{
			id:    s.allocRangeID(),
			start: start,
			nodes: n,
			toks:  len(part),
			bytes: len(tokenBytes),
		}
		rec := encodeRangeRecord(ri.id, ri.start, ri.nodes, ri.toks, tokenBytes)
		loc, moves, err := s.recs.InsertLast(rec)
		if err != nil {
			return InvalidNode, err
		}
		s.applyMoves(moves)
		ri.loc = loc
		s.register(ri)
		if s.full != nil {
			if err := s.full.addFragment(ri, tokenBytes); err != nil {
				return InvalidNode, err
			}
		}
	}
	s.inserts++
	return firstID, nil
}

// AppendStream bulk-loads tokens from a pull source with constant memory:
// tokens are buffered only up to the range granularity (Config.
// MaxRangeTokens, default 1024 for streams) and flushed range by range. The
// source returns io.EOF after the last token. The stream must form a
// well-formed fragment; violations are detected incrementally and abort the
// load mid-way (ranges already appended remain — callers wanting atomicity
// should stage into a fresh store).
func (s *Store) AppendStream(next func() (Token, error)) (_ NodeID, err error) {
	_, finish, err := s.beginOp(nil)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	chunk := s.cfg.MaxRangeTokens
	if chunk <= 0 {
		chunk = 1024
	}
	firstID := s.nextID
	var buf []Token
	depth := 0
	sawAny := false
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		n := token.NodeCount(buf)
		start := s.allocIDs(n)
		tokenBytes := token.EncodeAll(buf)
		ri := &rangeInfo{
			id:    s.allocRangeID(),
			start: start,
			nodes: n,
			toks:  len(buf),
			bytes: len(tokenBytes),
		}
		rec := encodeRangeRecord(ri.id, ri.start, ri.nodes, ri.toks, tokenBytes)
		loc, moves, err := s.recs.InsertLast(rec)
		if err != nil {
			return err
		}
		s.applyMoves(moves)
		ri.loc = loc
		s.register(ri)
		if s.full != nil {
			if err := s.full.addFragment(ri, tokenBytes); err != nil {
				return err
			}
		}
		buf = buf[:0]
		return nil
	}
	for {
		t, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return InvalidNode, err
		}
		// Incremental well-formedness: balance only (the full fragment
		// rules are enforced by the token source, typically xmltok).
		if t.IsBegin() {
			depth++
		} else if t.IsEnd() {
			depth--
			if depth < 0 {
				return InvalidNode, fmt.Errorf("%w: end token without begin", ErrBadFragment)
			}
		} else if !t.StartsNode() {
			return InvalidNode, fmt.Errorf("%w: invalid token kind %s", ErrBadFragment, t.Kind)
		}
		sawAny = true
		buf = append(buf, t)
		if len(buf) >= chunk {
			if err := flush(); err != nil {
				return InvalidNode, err
			}
		}
	}
	if depth != 0 {
		return InvalidNode, fmt.Errorf("%w: %d unclosed begin token(s)", ErrBadFragment, depth)
	}
	if !sawAny {
		return InvalidNode, fmt.Errorf("%w: empty stream", ErrBadFragment)
	}
	if err := flush(); err != nil {
		return InvalidNode, err
	}
	s.inserts++
	return firstID, nil
}

// Compact is a maintenance operation: one pass over the range chain merging
// every adjacent pair whose id intervals are contiguous (or where one side
// has no ids), up to maxRangeBytes per merged range (0 = a page's worth).
// It undoes update-driven fragmentation — the offline counterpart of the
// adaptive CoalesceBytes policy.
func (s *Store) Compact(maxRangeBytes int) (merged int, err error) {
	_, finish, err := s.beginOp(nil)
	if err != nil {
		return 0, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	if maxRangeBytes <= 0 {
		maxRangeBytes = s.cfg.PageSize
	}
	saved := s.cfg.CoalesceBytes
	s.cfg.CoalesceBytes = maxRangeBytes
	defer func() { s.cfg.CoalesceBytes = saved }()

	ri, ok, err := s.firstRange()
	if err != nil {
		return 0, err
	}
	for ok {
		did, err := func() (bool, error) {
			nxt, ok2, err := s.nextRangeInfo(ri)
			if err != nil || !ok2 {
				return false, err
			}
			return s.coalescePair(ri, nxt)
		}()
		if err != nil {
			return merged, err
		}
		if did {
			merged++
			continue // ri absorbed its successor; try again from ri
		}
		nxt, ok2, err := s.nextRangeInfo(ri)
		if err != nil {
			return merged, err
		}
		ri, ok = nxt, ok2
	}
	return merged, nil
}

// insertFragment splices frag in immediately before pos, as one new range
// with fresh contiguous ids. Returns the first new id.
func (s *Store) insertFragment(pos tokenPos, frag []Token) (NodeID, error) {
	n := token.NodeCount(frag)
	start := s.allocIDs(n)
	tokenBytes := token.EncodeAll(frag)
	if _, err := s.insertNewRange(pos, start, n, len(frag), tokenBytes); err != nil {
		return InvalidNode, err
	}
	s.inserts++
	return start, nil
}

// InsertBefore inserts frag as the preceding sibling(s) of node id.
func (s *Store) InsertBefore(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertBeforeCtx(context.Background(), id, frag)
}

// InsertBeforeCtx is InsertBefore under a context.
func (s *Store) InsertBeforeCtx(ctx context.Context, id NodeID, frag []Token) (_ NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	cur := s.cursor(ctx)
	defer cur.close()
	pos, k, _, err := s.locateBegin(cur, id)
	if err != nil {
		return InvalidNode, err
	}
	if k == token.BeginAttribute {
		return InvalidNode, ErrAttrContext
	}
	return s.insertFragment(pos, frag)
}

// InsertAfter inserts frag as the following sibling(s) of node id.
func (s *Store) InsertAfter(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertAfterCtx(context.Background(), id, frag)
}

// InsertAfterCtx is InsertAfter under a context.
func (s *Store) InsertAfterCtx(ctx context.Context, id NodeID, frag []Token) (_ NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	cur := s.cursor(ctx)
	defer cur.close()
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return InvalidNode, err
	}
	if k == token.BeginAttribute {
		return InvalidNode, ErrAttrContext
	}
	end, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return InvalidNode, err
	}
	after, err := advance(cur, end)
	if err != nil {
		return InvalidNode, err
	}
	return s.insertFragment(after, frag)
}

// InsertIntoFirst inserts frag as the first content of element id (after its
// attribute block).
func (s *Store) InsertIntoFirst(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertIntoFirstCtx(context.Background(), id, frag)
}

// InsertIntoFirstCtx is InsertIntoFirst under a context.
func (s *Store) InsertIntoFirstCtx(ctx context.Context, id NodeID, frag []Token) (_ NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	cur := s.cursor(ctx)
	defer cur.close()
	begin, k, _, err := s.locateBegin(cur, id)
	if err != nil {
		return InvalidNode, err
	}
	if err := requireElement(k); err != nil {
		return InvalidNode, err
	}
	pos, err := advance(cur, begin)
	if err != nil {
		return InvalidNode, err
	}
	pos, err = s.skipAttributes(cur, pos)
	if err != nil {
		return InvalidNode, err
	}
	return s.insertFragment(pos, frag)
}

// InsertIntoLast inserts frag as the last content of element id — the
// paper's running example (insert a <purchase-order> as the last child of
// the root).
func (s *Store) InsertIntoLast(id NodeID, frag []Token) (NodeID, error) {
	return s.InsertIntoLastCtx(context.Background(), id, frag)
}

// InsertIntoLastCtx is InsertIntoLast under a context.
func (s *Store) InsertIntoLastCtx(ctx context.Context, id NodeID, frag []Token) (_ NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	cur := s.cursor(ctx)
	defer cur.close()
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return InvalidNode, err
	}
	if err := requireElement(k); err != nil {
		return InvalidNode, err
	}
	end, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return InvalidNode, err
	}
	return s.insertFragment(end, frag)
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

// locateSpan returns the token span of node id's subtree: its begin token and
// the position right after its end token.
func (s *Store) locateSpan(ctx context.Context, id NodeID) (begin, after tokenPos, err error) {
	cur := s.cursor(ctx)
	defer cur.close()
	begin, k, e, err := s.locateBegin(cur, id)
	if err != nil {
		return tokenPos{}, tokenPos{}, err
	}
	end, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return tokenPos{}, tokenPos{}, err
	}
	after, err = advance(cur, end)
	return begin, after, err
}

// DeleteNode removes node id and its entire subtree.
func (s *Store) DeleteNode(id NodeID) error {
	return s.DeleteNodeCtx(context.Background(), id)
}

// DeleteNodeCtx is DeleteNode under a context.
func (s *Store) DeleteNodeCtx(ctx context.Context, id NodeID) (err error) {
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return err
	}
	begin, after, err := s.locateSpan(ctx, id)
	if err != nil {
		return err
	}
	pos, err := s.deleteSpan(begin, after)
	if err != nil {
		return err
	}
	if s.partial != nil {
		s.partial.removeNode(id)
	}
	s.deletes++
	s.maybeCoalesce(pos.ri)
	return nil
}

// ReplaceNode replaces node id (and subtree) with frag, returning the first
// new id.
func (s *Store) ReplaceNode(id NodeID, frag []Token) (NodeID, error) {
	return s.ReplaceNodeCtx(context.Background(), id, frag)
}

// ReplaceNodeCtx is ReplaceNode under a context.
func (s *Store) ReplaceNodeCtx(ctx context.Context, id NodeID, frag []Token) (_ NodeID, err error) {
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	begin, after, err := s.locateSpan(ctx, id)
	if err != nil {
		return InvalidNode, err
	}
	pos, err := s.deleteSpan(begin, after)
	if err != nil {
		return InvalidNode, err
	}
	if s.partial != nil {
		s.partial.removeNode(id)
	}
	s.deletes++
	if pos.ri == nil {
		// The store became empty: plain append.
		n := token.NodeCount(frag)
		start := s.allocIDs(n)
		tokenBytes := token.EncodeAll(frag)
		ri := &rangeInfo{
			id: s.allocRangeID(), start: start, nodes: n,
			toks: len(frag), bytes: len(tokenBytes),
		}
		rec := encodeRangeRecord(ri.id, ri.start, ri.nodes, ri.toks, tokenBytes)
		loc, moves, err := s.recs.InsertLast(rec)
		if err != nil {
			return InvalidNode, err
		}
		s.applyMoves(moves)
		ri.loc = loc
		s.register(ri)
		if s.full != nil {
			if err := s.full.addFragment(ri, tokenBytes); err != nil {
				return InvalidNode, err
			}
		}
		s.inserts++
		return start, nil
	}
	return s.insertFragment(pos, frag)
}

// ReplaceContent replaces the content of element id (children; the attribute
// block is preserved) with frag. A nil/empty frag empties the element.
func (s *Store) ReplaceContent(id NodeID, frag []Token) (NodeID, error) {
	return s.ReplaceContentCtx(context.Background(), id, frag)
}

// ReplaceContentCtx is ReplaceContent under a context.
func (s *Store) ReplaceContentCtx(ctx context.Context, id NodeID, frag []Token) (_ NodeID, err error) {
	if len(frag) > 0 {
		if err := checkFragment(frag); err != nil {
			return InvalidNode, err
		}
	}
	ctx, finish, err := s.beginOp(ctx)
	if err != nil {
		return InvalidNode, err
	}
	defer finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return InvalidNode, err
	}
	cur := s.cursor(ctx)
	defer cur.close()
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
	contentStart, err = s.skipAttributes(cur, contentStart)
	if err != nil {
		return InvalidNode, err
	}
	end, err := s.locateEnd(cur, id, begin, k, e)
	if err != nil {
		return InvalidNode, err
	}
	pos := end
	hasContent := !(contentStart.ri == end.ri && contentStart.tokIdx == end.tokIdx)
	if hasContent {
		pos, err = s.deleteSpan(contentStart, end)
		if err != nil {
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

package core

import (
	"fmt"

	"repro/internal/token"
)

// locateCheckTokens is how many in-memory tokens a locate scan classifies
// between context checks. Page fetches check the context on every fetch;
// this bounds the purely in-memory stretch of a very coarse range.
const locateCheckTokens = 8192

// tokenPos addresses one token (or the end-of-range position) inside a
// range: the token at index tokIdx, starting at byte byteOff of the range's
// encoded tokens. nodesBefore counts the node-starting tokens strictly
// before tokIdx — the quantity a split needs to partition the range's ID
// interval.
type tokenPos struct {
	ri          *rangeInfo
	tokIdx      int
	byteOff     int
	nodesBefore int
}

func (p tokenPos) atRangeEnd() bool { return p.byteOff >= p.ri.bytes }

// locateBegin finds the begin token of node id, consulting the indexes in
// the paper's priority order: full index (if configured), then partial
// index, then the coarse range index plus a scan resumed from the nearest
// replay checkpoint. It returns the position, the begin token's kind, and
// the Partial Index entry that answered (the zero entry otherwise) so that
// callers need not look it up again for the end. The cursor is left on the
// begin token.
//
// Safe under mu.RLock: the structures it reads are only mutated under the
// write lock, and the structures it writes (partial index, checkpoint
// table, counters) are internally synchronized.
//
// The cursor's context is observed at page-fetch boundaries and every
// locateCheckTokens tokens of replay, so an operation deadline cuts a
// coarse-range replay short with context.DeadlineExceeded instead of running
// it to the end.
func (s *Store) locateBegin(cur *rangeCursor, id NodeID) (tokenPos, token.Kind, partialEntry, error) {
	s.nodeLookups.Add(1)
	fail := func(err error) (tokenPos, token.Kind, partialEntry, error) {
		return tokenPos{}, token.Invalid, partialEntry{}, err
	}

	// Full index: exact entry per node.
	if s.full != nil {
		e, ok, err := s.full.get(id)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return fail(fmt.Errorf("%w: %d", ErrNoSuchNode, id))
		}
		ri, ok := s.rangeOf(id)
		if !ok || ri.id != e.rng {
			return fail(fmt.Errorf("core: full index names range %d for %d, not the range holding it", e.rng, id))
		}
		pos := tokenPos{ri: ri, tokIdx: int(e.tokIdx), byteOff: int(e.byteOff), nodesBefore: int(id - ri.start)}
		k, err := cur.kind(pos)
		return pos, k, partialEntry{}, err
	}

	// Partial index: lazily learned exact positions. A stale entry's end and
	// parent are still worth handing on: locateEnd checks the end on its own.
	var known partialEntry
	if s.partial != nil {
		if e, ok := s.partial.lookup(id); ok {
			if ri := s.beginRange(e); ri != nil {
				s.partial.hit()
				pos := tokenPos{ri: ri, tokIdx: int(e.beginTok), byteOff: int(e.beginByte), nodesBefore: int(id - ri.start)}
				if e.endsIn(ri) {
					// The paper's "jump to the end of the given node": the
					// subtree's exact byte span arrives in one read.
					cur.expect(ri, pos.byteOff, int(e.endByte+e.endLen))
				}
				k, err := cur.kind(pos)
				return pos, k, e, err
			}
			// Stale: the range was mutated or removed. Lazy invalidation.
			s.partial.forgetBegin(e)
			known = e
		}
		s.partial.miss()
	}

	// Coarse range index: floor search on interval start, then a replay
	// scan. The scan classifies tokens by their kind byte and skips decoding
	// names and values; it resumes from the nearest intra-range checkpoint —
	// the cursor reads from that byte on, not from the range head — and
	// deposits new checkpoints every checkpointInterval tokens for the next
	// locate to reuse.
	ri, ok := s.rangeOf(id)
	if !ok {
		return fail(fmt.Errorf("%w: %d", ErrNoSuchNode, id))
	}
	next := ri.start
	tokIdx := 0
	off := 0
	// prefix is the shared, immutable checkpoint run resumed from; builder
	// stays nil (no allocation) until this scan actually extends the run,
	// and only then clones the prefix into private storage.
	var prefix, builder []replayCheckpoint
	memoize := ri.toks >= checkpointMinTokens
	if memoize {
		cps := cur.learned(ri).cps
		if cp, pfx, ok := resumeFrom(cps, id); ok {
			next, tokIdx, off = cp.next, int(cp.tokIdx), int(cp.byteOff)
			prefix = pfx
		}
	}
	cpLen := len(prefix)
	scanned := uint64(0)
	defer func() { s.tokensScanned.Add(scanned) }()
	for off < ri.bytes {
		win, n, err := cur.tokens(ri, off)
		if err != nil {
			return fail(err)
		}
		for i := 0; ; { // every whole token of the window
			if scanned%locateCheckTokens == locateCheckTokens-1 {
				if err := cur.ctx.Err(); err != nil {
					return fail(err)
				}
			}
			if memoize && tokIdx == (cpLen+1)*checkpointInterval {
				if builder == nil {
					builder = append(make([]replayCheckpoint, 0, cpLen+4), prefix...)
				}
				builder = append(builder, replayCheckpoint{next: next, tokIdx: int32(tokIdx), byteOff: int32(off)})
				cpLen++
			}
			if k := token.KindOf(win[i]); k.StartsNode() {
				if next == id {
					pos := tokenPos{ri: ri, tokIdx: tokIdx, byteOff: off, nodesBefore: int(id - ri.start)}
					if s.partial != nil {
						s.partial.recordBegin(id, ri.id, ri.version, off, tokIdx)
					}
					if builder != nil {
						s.checkpoints.publish(ri.id, ri.version, builder, nil)
					}
					return pos, k, known, nil
				}
				next++
			}
			i, off = i+n, off+n
			scanned++
			tokIdx++
			if n, err = token.Size(win[i:]); err != nil {
				break // the window is used up, or ends inside a token
			}
		}
	}
	return fail(fmt.Errorf("core: range %v claims id %d but scan missed it", ri, id))
}

// locateEnd finds the end token of the node whose begin token (of kind k) is
// at begin; e is what locateBegin returned with it. For leaf tokens the end
// is the begin itself.
func (s *Store) locateEnd(cur *rangeCursor, id NodeID, begin tokenPos, k token.Kind, e partialEntry) (tokenPos, error) {
	if !k.IsBegin() {
		return begin, nil
	}

	// The partial index may know the end position already.
	if e.hasEnd {
		if ri := s.tableRange(e.endRange, e.endStart); ri != nil && ri.version == e.endVer {
			s.partial.hit()
			return tokenPos{ri: ri, tokIdx: int(e.endTok), byteOff: int(e.endByte), nodesBefore: int(e.endNodesBefore)}, nil
		}
	}

	// Scan forward from the begin token, counting depth, crossing ranges in
	// document order as needed. Only token kinds are examined.
	pos := begin
	depth := 0
	scanned := uint64(0)
	defer func() { s.tokensScanned.Add(scanned) }()
	for {
		for !pos.atRangeEnd() {
			if scanned%locateCheckTokens == locateCheckTokens-1 {
				if err := cur.ctx.Err(); err != nil {
					return tokenPos{}, err
				}
			}
			raw, err := cur.token(pos.ri, pos.byteOff)
			if err != nil {
				return tokenPos{}, err
			}
			scanned++
			k := token.KindOf(raw[0])
			if k.IsBegin() {
				depth++
			} else if k.IsEnd() {
				depth--
				if depth == 0 {
					if s.partial != nil {
						s.partial.recordEnd(id, pos.ri, pos.byteOff, pos.tokIdx, int32(pos.nodesBefore), int32(len(raw)))
					}
					return pos, nil
				}
			}
			pos = pos.past(k, len(raw))
		}
		// Continue into the next range.
		nri, ok, err := s.nextRangeInfo(cur.ctx, pos.ri)
		if err != nil {
			return tokenPos{}, err
		}
		if !ok {
			return tokenPos{}, fmt.Errorf("core: unbalanced store: no end token for node %d", id)
		}
		pos = tokenPos{ri: nri}
	}
}

// past returns the position right after the token at p, of kind k and n
// encoded bytes. It may be the end-of-range position; it never crosses into
// the next range.
func (p tokenPos) past(k token.Kind, n int) tokenPos {
	p.tokIdx++
	p.byteOff += n
	if k.StartsNode() {
		p.nodesBefore++
	}
	return p
}

// advance returns the position immediately after the token at pos. The
// result may be the end-of-range position; it is never advanced into the next
// range (record-level inserts handle that boundary directly). Only the kind
// byte and encoded size are examined — no string decoding, no allocation.
func advance(cur *rangeCursor, pos tokenPos) (tokenPos, error) {
	raw, err := cur.token(pos.ri, pos.byteOff)
	if err != nil {
		return tokenPos{}, err
	}
	return pos.past(token.KindOf(raw[0]), len(raw)), nil
}

// skipAttributes advances pos (which must sit just after an element's begin
// token) past the element's attribute block, returning the position of the
// first content token (or the element's end token). The scan crosses range
// boundaries, since a split may have cut through the attribute block. The
// walk reads kind bytes and encoded sizes only.
func (s *Store) skipAttributes(cur *rangeCursor, pos tokenPos) (tokenPos, error) {
	depth := 0
	scanned := uint64(0)
	defer func() { s.tokensScanned.Add(scanned) }()
	for {
		for !pos.atRangeEnd() {
			if scanned%locateCheckTokens == locateCheckTokens-1 {
				if err := cur.ctx.Err(); err != nil {
					return tokenPos{}, err
				}
			}
			raw, err := cur.token(pos.ri, pos.byteOff)
			if err != nil {
				return tokenPos{}, err
			}
			k := token.KindOf(raw[0])
			if depth == 0 && k != token.BeginAttribute {
				return pos, nil
			}
			if k.IsBegin() {
				depth++
			} else if k.IsEnd() {
				depth--
			}
			scanned++
			pos = pos.past(k, len(raw))
		}
		nri, ok, err := s.nextRangeInfo(cur.ctx, pos.ri)
		if err != nil {
			return tokenPos{}, err
		}
		if !ok {
			// End of the sequence: valid boundary position.
			return pos, nil
		}
		pos = tokenPos{ri: nri}
	}
}

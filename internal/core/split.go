package core

import (
	"context"
	"fmt"

	"repro/internal/pagestore"
	"repro/internal/token"
)

// Range placement and splitting — the mechanism that makes every XUpdate
// insert cheap (Section 4.2): an insert places one new range, and a split
// touches exactly one range (two record writes) and one or two range-index
// entries, never one entry per node.

// placeRange is how every range is born: the one new range of an insert, each
// range of a bulk load, and a split's tail. It gives the range a fresh range
// id, writes its record immediately before the token position pos —
// splitting pos.ri when pos falls strictly inside it; a zero pos means the
// end of the chain — and registers it. The full index is left to the caller:
// fresh content is added to it, a split's tail is rebased in it.
//
// rec is the record with its header left to fill: room for it
// (appendRecordRoom), then the token bytes. It is copied into its page
// before placeRange returns.
//
// When merge is set and the record does not fit the page it goes to, the
// ranges on that page are coarsened first (coarsen), so the record may fit
// after all. A bulk append (a zero pos) and a split's tail never merge.
func (s *Store) placeRange(pos tokenPos, start NodeID, nodes, toks int, rec []byte, merge bool) (*rangeInfo, error) {
	ri := &rangeInfo{id: s.allocRangeID(), start: start, nodes: nodes, toks: toks, bytes: len(rec) - rangeHeaderSize}
	rec = encodeRangeRecord(rec, ri.id, ri.start, ri.nodes, ri.toks)
	if pos.ri != nil && pos.byteOff > 0 && !pos.atRangeEnd() {
		if _, err := s.splitRange(pos.ri, pos); err != nil {
			return nil, err
		}
		pos.byteOff = pos.ri.bytes // the head's end: the record goes after it
	}
	var err error
	if pos.ri != nil && merge {
		if pos, err = s.coarsen(pos, len(rec)); err != nil {
			return nil, err
		}
	}
	var loc pagestore.Loc
	var moves []pagestore.Move
	switch {
	case pos.ri == nil:
		loc, moves, err = s.recs.InsertLast(rec)
	case pos.byteOff == 0:
		loc, moves, err = s.recs.InsertBefore(pos.ri.loc, rec)
	default:
		loc, moves, err = s.recs.InsertAfter(pos.ri.loc, rec)
	}
	if err != nil {
		return nil, err
	}
	err = s.applyMoves(moves)
	ri.loc = loc
	s.register(ri)
	return ri, err
}

// newRange places frag at pos as one range of fresh contiguous ids (see
// placeRange) and indexes it in the full index. Returns the first new id.
// The fragment is encoded once, straight into the record placeRange writes.
func (s *Store) newRange(pos tokenPos, frag []Token) (NodeID, error) {
	n := token.NodeCount(frag)
	start := s.allocIDs(n)
	rec := s.dict.AppendAll(appendRecordRoom(s.scratch.newRec[:0]), frag)
	s.scratch.newRec = rec
	ri, err := s.placeRange(pos, start, n, len(frag), rec, true)
	if err != nil {
		return InvalidNode, err
	}
	if s.full != nil {
		if err := s.full.addFragment(ri, rec[rangeHeaderSize:]); err != nil {
			return InvalidNode, err
		}
	}
	return start, nil
}

// splitRange cuts ri at pos (strictly inside the range), leaving the head
// tokens in ri and creating a new range for the tail. The tail inherits the
// ID subinterval [ri.start+pos.nodesBefore, ri.end()], which is contiguous
// because ids were assigned in token order. Returns the tail range.
func (s *Store) splitRange(ri *rangeInfo, pos tokenPos) (*rangeInfo, error) {
	if pos.ri != ri || pos.byteOff <= 0 || pos.byteOff >= ri.bytes {
		return nil, fmt.Errorf("core: splitRange at invalid position %d of %v", pos.byteOff, ri)
	}
	cur := s.cursor(context.Background()) // past the point of no return: no deadline
	defer cur.close()
	tokenBytes, err := cur.all(ri)
	if err != nil {
		return nil, err
	}
	headBytes := tokenBytes[:pos.byteOff]
	tailBytes := tokenBytes[pos.byteOff:]

	headNodes, headToks := pos.nodesBefore, pos.tokIdx
	tailNodes := ri.nodes - headNodes
	tailToks := ri.toks - headToks
	if tailNodes < 0 || tailToks <= 0 {
		return nil, fmt.Errorf("core: split accounting error (head %d/%d of %v)", headNodes, headToks, ri)
	}
	tailStart := ri.start + NodeID(headNodes)

	// Rewrite the head first (a shrink, so ri never relocates and the page
	// gains room for the tail record). The tail's share of the counters
	// leaves with it here and comes back when the tail is placed.
	if headNodes == 0 && ri.nodes > 0 { // the head keeps no ids: it turns id-less
		s.rindex.Delete(uint64(ri.start))
		s.idless[ri.id] = ri
	}
	s.nodes -= uint64(tailNodes)
	s.tokens -= uint64(tailToks)
	s.bytes -= uint64(len(tailBytes))
	ri.nodes, ri.toks, ri.bytes = headNodes, headToks, len(headBytes)
	if err := s.writeRangeRecord(ri, headBytes); err != nil {
		return nil, err
	}

	// Place the tail record right after the head.
	s.scratch.rec = append(appendRecordRoom(s.scratch.rec[:0]), tailBytes...)
	tail, err := s.placeRange(tokenPos{ri: ri, byteOff: ri.bytes}, tailStart, tailNodes, tailToks, s.scratch.rec, false)
	if err != nil {
		return nil, err
	}

	// The full index must be told that the tail's nodes changed range and
	// offsets — the eager maintenance cost the paper measures.
	if s.full != nil {
		if err := s.full.rebase(tail.start, tail.nodes, tail.id, int32(pos.byteOff), int32(pos.tokIdx)); err != nil {
			return nil, err
		}
	}
	s.splits++
	return tail, nil
}

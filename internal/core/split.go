package core

import (
	"context"
	"fmt"

	"repro/internal/pagestore"
)

// Range splitting — the mechanism that makes every XUpdate insert cheap
// (Section 4.2): a split touches exactly one range (two record writes) and
// one or two range-index entries, never one entry per node.

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

	oldNodes, oldToks, oldStart := ri.nodes, ri.toks, ri.start
	headNodes, headToks := pos.nodesBefore, pos.tokIdx
	tailNodes := oldNodes - headNodes
	tailToks := oldToks - headToks
	if tailNodes < 0 || tailToks <= 0 {
		return nil, fmt.Errorf("core: split accounting error (head %d/%d of %v)", headNodes, headToks, ri)
	}

	tail := &rangeInfo{
		id:    s.allocRangeID(),
		start: oldStart + NodeID(headNodes),
		nodes: tailNodes,
		toks:  tailToks,
		bytes: len(tailBytes),
	}

	// Rewrite the head first (a shrink, so ri never relocates and the page
	// gains room for the tail record).
	if headNodes == 0 && oldNodes > 0 {
		// The head keeps no ids: pull ri out of the interval index.
		s.rindex.Delete(uint64(oldStart))
	}
	ri.nodes = headNodes
	ri.toks = headToks
	s.bytes -= uint64(ri.bytes - len(headBytes))
	ri.bytes = len(headBytes)
	if err := s.writeRangeRecord(ri, headBytes); err != nil {
		return nil, err
	}

	// Insert the tail record right after the head.
	rec := encodeRangeRecord(tail.id, tail.start, tail.nodes, tail.toks, tailBytes)
	loc, moves, err := s.recs.InsertAfter(ri.loc, rec)
	if err != nil {
		return nil, err
	}
	s.applyMoves(moves)
	tail.loc = loc

	// Register the tail without re-counting node/token aggregates (they
	// merely moved between ranges); only the byte total changes.
	s.byRange[tail.id] = tail
	s.byLoc[tail.loc] = tail
	if tail.nodes > 0 {
		s.rindex.Set(uint64(tail.start), tail)
	}
	s.bytes += uint64(tail.bytes)

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

// insertNewRange creates a range for the encoded fragment and splices its
// record in immediately before the token position pos (splitting pos.ri when
// pos falls strictly inside it). Returns the new range.
func (s *Store) insertNewRange(pos tokenPos, start NodeID, nodes, toks int, tokenBytes []byte) (*rangeInfo, error) {
	nr := &rangeInfo{
		id:    s.allocRangeID(),
		start: start,
		nodes: nodes,
		toks:  toks,
		bytes: len(tokenBytes),
	}
	rec := encodeRangeRecord(nr.id, nr.start, nr.nodes, nr.toks, tokenBytes)

	var loc pagestore.Loc
	var moves []pagestore.Move
	var err error
	switch {
	case pos.byteOff == 0:
		loc, moves, err = s.recs.InsertBefore(pos.ri.loc, rec)
	case pos.atRangeEnd():
		loc, moves, err = s.recs.InsertAfter(pos.ri.loc, rec)
	default:
		if _, err := s.splitRange(pos.ri, pos); err != nil {
			return nil, err
		}
		loc, moves, err = s.recs.InsertAfter(pos.ri.loc, rec)
	}
	if err != nil {
		return nil, err
	}
	s.applyMoves(moves)
	nr.loc = loc
	s.byRange[nr.id] = nr
	s.byLoc[nr.loc] = nr
	if nr.nodes > 0 {
		s.rindex.Set(uint64(nr.start), nr)
	}
	s.nodes += uint64(nr.nodes)
	s.tokens += uint64(nr.toks)
	s.bytes += uint64(nr.bytes)
	if s.full != nil {
		if err := s.full.addFragment(nr, tokenBytes); err != nil {
			return nil, err
		}
	}
	return nr, nil
}

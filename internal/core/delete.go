package core

import (
	"context"
	"fmt"
)

// Span deletion. A deleted subtree occupies a contiguous run of tokens in
// document order, but not a contiguous run of node ids (descendants inserted
// later carry ids from other allocations). The token run is removed by
// normalizing its ends to range boundaries with at most two splits and then
// dropping whole ranges — each surviving range still covers a contiguous id
// interval.

// deleteSpan removes the tokens in [begin, endAfter) and returns the
// position where the span used to be (for replace operations). The returned
// position has ri == nil when the store became empty.
func (s *Store) deleteSpan(begin, endAfter tokenPos) (tokenPos, error) {
	if begin.ri == endAfter.ri && begin.byteOff == endAfter.byteOff {
		return begin, nil // empty span
	}

	// Normalize the right edge: after this, the span ends exactly at a
	// range boundary and `survivor` is the range that starts there (nil at
	// end of store).
	var survivor *rangeInfo
	switch {
	case endAfter.byteOff == 0:
		survivor = endAfter.ri
	case endAfter.atRangeEnd():
		nxt, ok, err := s.nextRangeInfo(context.Background(), endAfter.ri)
		if err != nil {
			return tokenPos{}, err
		}
		if ok {
			survivor = nxt
		}
	default:
		tail, err := s.splitRange(endAfter.ri, endAfter)
		if err != nil {
			return tokenPos{}, err
		}
		survivor = tail
	}

	// Normalize the left edge: keepHead is the surviving prefix of
	// begin.ri, firstDeleted the first range of the doomed run.
	var keepHead, firstDeleted *rangeInfo
	var prevKeep *rangeInfo
	if begin.byteOff == 0 {
		firstDeleted = begin.ri
		prev, ok, err := s.prevRangeInfo(begin.ri)
		if err != nil {
			return tokenPos{}, err
		}
		if ok {
			prevKeep = prev
		}
	} else {
		tail, err := s.splitRange(begin.ri, begin)
		if err != nil {
			return tokenPos{}, err
		}
		keepHead = begin.ri
		firstDeleted = tail
	}

	// Drop the doomed run.
	cur := firstDeleted
	for cur != nil && cur != survivor {
		nxt, ok, err := s.nextRangeInfo(context.Background(), cur)
		if err != nil {
			return tokenPos{}, err
		}
		if err := s.deleteWholeRange(cur); err != nil {
			return tokenPos{}, err
		}
		if !ok {
			cur = nil
			break
		}
		cur = nxt
	}
	if survivor != nil && cur != survivor {
		return tokenPos{}, fmt.Errorf("core: span walk missed survivor range %v", survivor)
	}

	// Report where the span was.
	switch {
	case survivor != nil:
		return tokenPos{ri: survivor}, nil
	case keepHead != nil:
		return tokenPos{
			ri: keepHead, tokIdx: keepHead.toks,
			byteOff: keepHead.bytes, nodesBefore: keepHead.nodes,
		}, nil
	case prevKeep != nil:
		return tokenPos{
			ri: prevKeep, tokIdx: prevKeep.toks,
			byteOff: prevKeep.bytes, nodesBefore: prevKeep.nodes,
		}, nil
	default:
		return tokenPos{}, nil // store is empty
	}
}

// deleteWholeRange drops a range: its index entries, its counters and its
// record.
func (s *Store) deleteWholeRange(ri *rangeInfo) error {
	if s.full != nil {
		if err := s.full.removeInterval(ri.start, ri.nodes); err != nil {
			return err
		}
	}
	s.unregister(ri)
	return s.recs.Delete(ri.loc)
}

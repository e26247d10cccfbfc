package core

import "context"

// Adaptive range coalescing (an extension from the paper's future-work
// discussion). Repeated updates fragment the token sequence into many tiny
// ranges, which bloats the range index and slows later inserts — the "many,
// granular entries" row of Table 5. When Config.CoalesceBytes > 0, the store
// merges a range with its document-order neighbours after a delete while
//
//   - the combined encoded size stays at or below CoalesceBytes, and
//   - the merged range still covers one contiguous id interval: either one
//     side has no ids at all, or the right side's interval starts exactly
//     where the left side's ends.
//
// The second condition is what keeps id regeneration correct: replaying the
// id factory over the merged token sequence must assign exactly the old ids.

// maybeCoalesce tries to merge ri with its neighbours.
func (s *Store) maybeCoalesce(ri *rangeInfo) {
	if s.cfg.CoalesceBytes <= 0 || ri == nil || s.tableRange(ri.id, ri.start) != ri {
		return
	}
	// Merge leftward first (prev absorbs ri), then rightward.
	if prev, ok, err := s.prevRangeInfo(ri); err == nil && ok {
		if merged, err := s.coalescePair(prev, ri, s.cfg.CoalesceBytes); err == nil && merged {
			ri = prev
		}
	}
	if next, ok, err := s.nextRangeInfo(context.Background(), ri); err == nil && ok {
		s.coalescePair(ri, next, s.cfg.CoalesceBytes)
	}
}

// coalescePair merges b (the document-order successor) into a when the
// policy allows, with at most maxBytes in the merged range. Reports whether a
// merge happened.
func (s *Store) coalescePair(a, b *rangeInfo, maxBytes int) (bool, error) {
	if a.bytes+b.bytes > maxBytes {
		return false, nil
	}
	if a.nodes > 0 && b.nodes > 0 && b.start != a.end()+1 {
		return false, nil // ids would not regenerate contiguously
	}
	cur := s.cursor(context.Background())
	defer cur.close()
	merged := make([]byte, 0, a.bytes+b.bytes)
	for _, ri := range [...]*rangeInfo{a, b} {
		tokenBytes, err := cur.all(ri)
		if err != nil {
			return false, err
		}
		merged = append(merged, tokenBytes...)
	}

	// Both leave the table and a comes back merged, counters and all: the
	// content moves, it is not dropped.
	s.unregister(a)
	s.unregister(b)
	if s.full != nil && b.nodes > 0 {
		if err := s.full.rebase(b.start, b.nodes, a.id, int32(-a.bytes), int32(-a.toks)); err != nil {
			return false, err
		}
	}
	if err := s.recs.Delete(b.loc); err != nil {
		return false, err
	}

	// Merged identity: keep a's range id; the start id comes from whichever
	// side has ids (a wins when both do).
	if a.nodes == 0 {
		a.start = b.start
	}
	a.nodes += b.nodes
	a.toks += b.toks
	a.bytes = len(merged)
	if err := s.writeRangeRecord(a, merged); err != nil {
		return false, err
	}
	s.register(a)
	s.merges++
	return true, nil
}

package core

import (
	"context"
	"fmt"

	"repro/internal/pagestore"
)

// Coarsening: merging document-order neighbours into one range. The paper
// lets any token subsequence form a unit, and a range's node ids come back by
// replaying the ID factory from its start id, so neighbours may merge as long
// as the merged range still covers one contiguous id interval: either one
// side has no ids at all, or the right side's interval starts exactly where
// the left side's ends. Replaying the factory over the merged token sequence
// then assigns exactly the old ids.
//
// Two policies share one merge (mergeRuns):
//
//   - coarsen, always on, is where the page fills: before a placement cuts
//     a data page, each run of neighbours on that page whose ids join up
//     becomes one range. It is what keeps a store grown by single-order
//     appends from holding one range per insert; the page is the bound.
//   - maybeCoalesce, when Config.CoalesceBytes > 0, is where content
//     leaves: after a DeleteNode, or a ReplaceContent that empties an
//     element, the range at the delete point merges with its neighbours
//     across pages, id-less ones included, up to CoalesceBytes.

// coarsen is placeRange's answer to a full page. pos is a record boundary —
// the record of n bytes goes before pos.ri (byteOff 0) or after it — and
// when that record does not fit pos.ri's page, every run of neighbouring
// ranges on the page whose ids join up is merged into the run's first range.
// A run takes only ranges that carry ids and are stored inline (so the
// merged range is one inline record), holds at most Config.MaxRangeTokens
// tokens when that is set, and never spans pos: the insertion point stays a
// range boundary. It returns pos remapped onto the range that absorbed
// pos.ri. A page with nothing to merge costs one read of its slot table and
// record headers, in place.
func (s *Store) coarsen(pos tokenPos, n int) (tokenPos, error) {
	page := pos.ri.loc.Page
	if fits, err := s.recs.Fits(page, n); fits || err != nil {
		return pos, err
	}
	runs, err := s.pageRuns(page, pos)
	if err != nil {
		return pos, err
	}
	for _, run := range runs {
		var ahead tokenPos // what the run holds ahead of pos.ri, when pos.ri is in it
		for _, ri := range run {
			if ri == pos.ri {
				pos = tokenPos{ri: run[0], byteOff: pos.byteOff + ahead.byteOff, tokIdx: pos.tokIdx + ahead.tokIdx, nodesBefore: pos.nodesBefore + ahead.nodesBefore}
				break
			}
			ahead.byteOff += ri.bytes
			ahead.tokIdx += ri.toks
			ahead.nodesBefore += ri.nodes
		}
	}
	return pos, s.mergeRuns(runs)
}

// pageRuns reads the record headers on page, in place, and returns the runs
// coarsen merges there (see coarsen), each in document order. A record's
// range is looked up only when it joins a run.
func (s *Store) pageRuns(page pagestore.PageID, pos tokenPos) ([][]*rangeInfo, error) {
	type header struct {
		loc   pagestore.Loc
		id    RangeID
		start NodeID
		nodes int
	}
	var (
		flat    []*rangeInfo // the runs, one after another
		starts  []int        // where each run begins in flat
		prev    header       // the previous record's (nodes 0 when it has no ids or is spilled)
		runToks int          // tokens in the run prev ends
		lookErr error
	)
	look := func(h header) *rangeInfo {
		ri := s.tableRange(h.id, h.start)
		if ri == nil || ri.loc != h.loc || ri.nodes != h.nodes {
			lookErr = fmt.Errorf("core: record at %v (range %d) has no range info", h.loc, h.id)
		}
		return ri
	}
	err := s.recs.PageRecords(page, func(loc pagestore.Loc, payload []byte) {
		if lookErr != nil {
			return
		}
		h := header{loc: loc}
		var toks int
		if len(payload) >= rangeHeaderSize {
			h.id, h.start, h.nodes, toks, _, _ = decodeRangeHeader(payload)
		}
		atPos := pos.byteOff == 0 && loc == pos.ri.loc || pos.byteOff > 0 && prev.loc == pos.ri.loc
		switch {
		case h.nodes == 0 || prev.nodes == 0 || atPos || h.start != prev.start+NodeID(prev.nodes) ||
			s.cfg.MaxRangeTokens > 0 && runToks+toks > s.cfg.MaxRangeTokens:
			runToks = toks
		case len(flat) == 0 || flat[len(flat)-1].loc != prev.loc:
			starts = append(starts, len(flat))
			flat = append(flat, look(prev))
			fallthrough
		default:
			flat = append(flat, look(h))
			runToks += toks
		}
		prev = h
	})
	if err == nil {
		err = lookErr
	}
	if err != nil || len(starts) == 0 {
		return nil, err
	}
	runs := make([][]*rangeInfo, len(starts))
	for i, lo := range starts {
		hi := len(flat)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		runs[i] = flat[lo:hi:hi]
	}
	return runs, nil
}

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
	err := s.mergeRuns([][]*rangeInfo{{a, b}})
	return err == nil, err
}

// mergeRuns merges each run — document-order neighbours whose ids join up —
// into its first range, which keeps its range id and takes the start id of
// the first range with ids. The others' records are deleted, their Full
// Index entries rebased onto the merged range, and the merged record is
// written with writeRangeRecord, which bumps its version: nothing learned
// about any of them validates again. Every absorbed record is deleted before
// any merged one is written, so runs on one page share its compactions.
func (s *Store) mergeRuns(runs [][]*rangeInfo) error {
	cur := s.cursor(context.Background())
	defer cur.close()
	merged := s.scratch.merged[:0] // the runs' bytes, one run after another
	for _, run := range runs {
		for _, ri := range run {
			tokenBytes, err := cur.all(ri)
			if err != nil {
				return err
			}
			merged = append(merged, tokenBytes...)
		}
	}
	s.scratch.merged = merged
	for _, run := range runs {
		// The others leave the table and a takes their content, counters and
		// all: the content moves, it is not dropped. a keeps its place in the
		// table unless it had no ids, and so gains a start id.
		a := run[0]
		rekey := a.nodes == 0
		if rekey {
			s.unregister(a)
		}
		for _, b := range run[1:] {
			s.unregister(b)
			if !rekey {
				s.nodes += uint64(b.nodes)
				s.tokens += uint64(b.toks)
				s.bytes += uint64(b.bytes)
			}
			if s.full != nil && b.nodes > 0 {
				if err := s.full.rebase(b.start, b.nodes, a.id, int32(-a.bytes), int32(-a.toks)); err != nil {
					return err
				}
			}
			if err := s.recs.Delete(b.loc); err != nil {
				return err
			}
			if a.nodes == 0 {
				a.start = b.start
			}
			a.nodes += b.nodes
			a.toks += b.toks
			a.bytes += b.bytes
		}
		if rekey {
			s.register(a)
		}
		s.merges += uint64(len(run) - 1)
	}
	for _, run := range runs {
		a := run[0] // its bytes are now the whole run's
		if err := s.writeRangeRecord(a, merged[:a.bytes]); err != nil {
			return err
		}
		merged = merged[a.bytes:]
	}
	return nil
}

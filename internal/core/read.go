package core

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/token"
	"repro/internal/xmltok"
)

// Read operations of the Table 1 interface: read() streams the entire data
// source in document order; read(id) returns one node's subtree. Node
// identifiers are regenerated during the scan by replaying the ID factory
// from each range's start id — they are never read from storage.
//
// Every outermost entry point enters through readOp and observes the
// operation context at page-fetch boundaries. Composite helpers (ReadAll,
// Tokens, WriteXML, ...) chain one gated call and add no gate of their own.

// Scan streams every token of the store in document order, with regenerated
// node ids. fn returning false stops the scan. A checksum failure surfaced
// by the scan degrades the store to read-only.
func (s *Store) Scan(fn func(Item) bool) error {
	return s.ScanCtx(context.Background(), fn)
}

// ScanCtx is Scan with cooperative cancellation and admission control: the
// context (plus the configured OpTimeout) is checked at every page fetch,
// so a deadline cuts a long scan short with context.DeadlineExceeded.
func (s *Store) ScanCtx(ctx context.Context, fn func(Item) bool) error {
	var derr error
	err := s.scanRaw(ctx, s.decoded(fn, &derr), false) // reading everything is not a search
	if derr != nil {
		return derr
	}
	return err
}

// decoded adapts a consumer of materialized tokens to the raw scans: each
// token is decoded on its way through the store's dictionary, so a name
// costs no allocation. A decode failure stops the scan and is left in *errp.
func (s *Store) decoded(fn func(Item) bool, errp *error) func(NodeID, []byte) bool {
	return func(id NodeID, raw []byte) bool {
		t, _, err := s.dict.Decode(raw)
		if err != nil {
			*errp = err
			return false
		}
		return fn(Item{ID: id, Tok: t})
	}
}

// ReadAll materializes the full token sequence with ids.
func (s *Store) ReadAll() ([]Item, error) {
	return s.ReadAllCtx(context.Background())
}

// ReadAllCtx is ReadAll under a context.
func (s *Store) ReadAllCtx(ctx context.Context) ([]Item, error) {
	var out []Item
	err := s.ScanCtx(ctx, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out, err
}

// Tokens returns the full token sequence without ids.
func (s *Store) Tokens() ([]Token, error) {
	var out []Token
	err := s.Scan(func(it Item) bool {
		out = append(out, it.Tok)
		return true
	})
	return out, err
}

// ScanNode streams the subtree of node id (begin through matching end) with
// regenerated ids. fn returning false stops early.
func (s *Store) ScanNode(id NodeID, fn func(Item) bool) error {
	return s.ScanNodeCtx(context.Background(), id, fn)
}

// ScanNodeCtx is ScanNode with cooperative cancellation and admission
// control.
func (s *Store) ScanNodeCtx(ctx context.Context, id NodeID, fn func(Item) bool) error {
	var derr error
	err := s.ScanNodeRawCtx(ctx, id, s.decoded(fn, &derr))
	if derr != nil {
		return derr
	}
	return err
}

// ScanRawCtx streams every token of the store in document order as raw
// encoded bytes, with regenerated node ids (InvalidNode for tokens that do
// not start a node). It is the zero-allocation substrate of the pushed-down
// query executor: no Token structs are materialized and no strings are
// copied — use the store's Dict().View inside fn to inspect names and values
// in place.
// The raw slice is only valid for the duration of the callback. fn returning
// false stops the scan. The tokens it passes count as scanned: this is how a
// query without an index finds its nodes.
func (s *Store) ScanRawCtx(ctx context.Context, fn func(id NodeID, raw []byte) bool) error {
	return s.scanRaw(ctx, fn, true)
}

// scanRaw is every whole-store scan; searching says whether the tokens it
// passes count as scanned.
func (s *Store) scanRaw(ctx context.Context, fn func(id NodeID, raw []byte) bool, searching bool) error {
	return s.readOp(ctx, func(cur *rangeCursor) error {
		ri, ok, err := s.firstRange()
		if err != nil || !ok {
			return err
		}
		scanned := uint64(0)
		if searching {
			defer func() { s.tokensScanned.Add(scanned) }()
		}
		for {
			next := ri.start
			for off := 0; off < ri.bytes; {
				win, n, err := cur.tokens(ri, off)
				if err != nil {
					return err
				}
				for i := 0; ; { // every whole token of the window
					if scanned%locateCheckTokens == locateCheckTokens-1 {
						if err := cur.ctx.Err(); err != nil {
							return err
						}
					}
					scanned++
					id := InvalidNode
					if token.KindOf(win[i]).StartsNode() {
						id = next
						next++
					}
					if !fn(id, win[i:i+n]) {
						return nil
					}
					i, off = i+n, off+n
					if n, err = token.Size(win[i:]); err != nil {
						break // the window is used up, or ends inside a token
					}
				}
			}
			nri, ok, err := s.nextRangeInfo(cur.ctx, ri)
			if err != nil || !ok {
				return err
			}
			ri = nri
		}
	})
}

// ScanNodeRawCtx streams the subtree of node id (begin through matching end)
// as raw encoded tokens, with the same contract as ScanRawCtx.
//
// Readers share the lock: locate's writes (partial index, checkpoint table,
// scan counters) all go to internally-synchronized structures.
func (s *Store) ScanNodeRawCtx(ctx context.Context, id NodeID, fn func(id NodeID, raw []byte) bool) error {
	return s.readOp(ctx, func(cur *rangeCursor) error {
		return s.scanNodeRawLocked(cur, id, fn)
	})
}

// scanNodeRawLocked is every subtree read: locate the begin token, then
// stream tokens until the depth returns to zero, crossing into the following
// ranges as needed. When the Partial Index already holds the end in the same
// range the cursor was told where the subtree stops (locateBegin) and the
// loop reads exactly that span; otherwise it finds the end and memorizes it,
// so the next read of this node is that warm read.
func (s *Store) scanNodeRawLocked(cur *rangeCursor, id NodeID, fn func(id NodeID, raw []byte) bool) error {
	pos, _, e, err := s.locateBegin(cur, id)
	if err != nil {
		return err
	}
	endKnown := e.endsIn(pos.ri)
	next := id
	depth := 0
	scanned := uint64(0)
	defer func() {
		// Reading a known span is not a locate scan, and the begin token was
		// located, not scanned.
		if !endKnown && scanned > 1 {
			s.tokensScanned.Add(scanned - 1)
		}
	}()
	for {
		for !pos.atRangeEnd() {
			win, n, err := cur.tokens(pos.ri, pos.byteOff)
			if err != nil {
				return err
			}
			for i := 0; ; { // every whole token of the window
				if scanned%locateCheckTokens == locateCheckTokens-1 {
					if err := cur.ctx.Err(); err != nil {
						return err
					}
				}
				scanned++
				k := token.KindOf(win[i])
				nid := InvalidNode
				if k.StartsNode() {
					nid = next
					next++
				}
				if k.IsBegin() {
					depth++
				} else if k.IsEnd() {
					depth--
				}
				if !fn(nid, win[i:i+n]) {
					return nil
				}
				if depth == 0 {
					// The subtree's last token (a leaf is its own end).
					if s.partial != nil && !endKnown {
						s.partial.recordEnd(id, pos.ri, pos.byteOff, pos.tokIdx,
							int32(pos.nodesBefore), int32(n))
					}
					return nil
				}
				pos, i = pos.past(k, n), i+n
				if n, err = token.Size(win[i:]); err != nil {
					break // the window is used up, or ends inside a token
				}
			}
		}
		nri, ok, err := s.nextRangeInfo(cur.ctx, pos.ri)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: unbalanced store: node %d has no end token", id)
		}
		pos = tokenPos{ri: nri}
		next = nri.start
	}
}

// ReadNode returns the subtree of node id as items with regenerated ids.
func (s *Store) ReadNode(id NodeID) ([]Item, error) {
	return s.ReadNodeCtx(context.Background(), id)
}

// ReadNodeCtx is ReadNode under a context.
func (s *Store) ReadNodeCtx(ctx context.Context, id NodeID) ([]Item, error) {
	var out []Item
	err := s.ScanNodeCtx(ctx, id, func(it Item) bool {
		out = append(out, it)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NodeTokens returns the subtree of node id as a plain token slice.
func (s *Store) NodeTokens(id NodeID) ([]Token, error) {
	items, err := s.ReadNode(id)
	if err != nil {
		return nil, err
	}
	out := make([]Token, len(items))
	for i, it := range items {
		out[i] = it.Tok
	}
	return out, nil
}

// Exists reports whether node id is present. This is a pure index lookup
// under the shared lock: every id inside a live range's interval
// [start, start+nodes) is live (deletes shrink or split intervals, never
// leave holes), so an interval-containment check answers the question
// without reading a single token. It never queues behind admission control.
func (s *Store) Exists(id NodeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	s.nodeLookups.Add(1)
	_, ok := s.rangeOf(id)
	return ok
}

// FirstNodeID returns the id of the first node in document order.
func (s *Store) FirstNodeID() (NodeID, bool, error) {
	return s.FirstNodeIDCtx(context.Background())
}

// FirstNodeIDCtx is FirstNodeID under a context.
func (s *Store) FirstNodeIDCtx(ctx context.Context) (first NodeID, ok bool, err error) {
	err = s.readOp(ctx, func(cur *rangeCursor) error {
		ri, more, err := s.firstRange()
		for ; more && err == nil; ri, more, err = s.nextRangeInfo(cur.ctx, ri) {
			if ri.nodes > 0 {
				first, ok = ri.start, true
				return nil
			}
		}
		return err
	})
	return first, ok, err
}

// WriteXML serializes the whole store as XML text.
func (s *Store) WriteXML(w io.Writer) error {
	ser := xmltok.NewSerializer(w)
	err := s.Scan(func(it Item) bool {
		return ser.Write(it.Tok) == nil
	})
	if err != nil {
		return err
	}
	return ser.Flush()
}

// XMLString renders the whole store as an XML string.
func (s *Store) XMLString() (string, error) {
	toks, err := s.Tokens()
	if err != nil {
		return "", err
	}
	return xmltok.ToString(toks)
}

// AppendNodeXML renders one node's subtree as XML text onto dst, straight
// from the stored token bytes: no Token is materialized and nothing is
// allocated beyond what dst needs to grow. Attribute nodes, which have no
// standalone XML form, render as name="value". On error dst comes back at
// its original length.
func (s *Store) AppendNodeXML(ctx context.Context, dst []byte, id NodeID) (out []byte, err error) {
	out = dst
	err = s.readOp(ctx, func(cur *rangeCursor) (err error) {
		out, err = s.appendNodeXMLLocked(cur, dst, id)
		return err
	})
	return out, err
}

func (s *Store) appendNodeXMLLocked(cur *rangeCursor, dst []byte, id NodeID) ([]byte, error) {
	out := dst
	w := &cur.xml
	w.Reset()
	first, attr := true, false
	var werr error
	err := s.scanNodeRawLocked(cur, id, func(_ NodeID, raw []byte) bool {
		k, name, value, _, err := s.dict.View(raw)
		if err != nil {
			werr = err
			return false
		}
		if first && k == token.BeginAttribute {
			out = strconv.AppendQuote(append(append(out, name...), '='), string(value))
			attr = true
		}
		first = false
		if !attr { // an attribute node's end token has nothing to add
			out, werr = xmltok.AppendToken(w, out, k, name, value)
		}
		return werr == nil
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		out, err = w.Finish(out)
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}

// NodeXMLString renders one node's subtree as an XML string (see
// AppendNodeXML).
func (s *Store) NodeXMLString(id NodeID) (xml string, err error) {
	err = s.readOp(context.Background(), func(cur *rangeCursor) (err error) {
		cur.out, err = s.appendNodeXMLLocked(cur, cur.out[:0], id)
		xml = string(cur.out)
		return err
	})
	return xml, err
}

// CheckInvariants validates cross-structure consistency: every range record
// agrees with its descriptor, id intervals are disjoint, document order is
// well-formed, and the aggregate counters add up. Tests lean on this. It is
// a diagnostic and bypasses admission control.
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkInvariantsLocked()
}

func (s *Store) checkInvariantsLocked() error {
	var nodes, toks, bytes uint64
	ranges, idless := 0, 0
	var stack []token.Kind
	cur := s.cursor(context.Background())
	defer cur.close()

	ri, ok, err := s.firstRange()
	if err != nil {
		return err
	}
	for ok {
		// ri was found from its record's header, in the table, at ri.loc:
		// no range is in the chain twice, or missing from the table.
		ranges++
		if ri.nodes == 0 {
			idless++
		}
		tokenBytes, err := cur.all(ri)
		if err != nil {
			return err
		}
		if len(tokenBytes) != ri.bytes {
			return fmt.Errorf("core: %v: record has %d bytes, descriptor %d", ri, len(tokenBytes), ri.bytes)
		}
		n, tk, err := countNodesInPrefix(tokenBytes, len(tokenBytes))
		if err != nil {
			return err
		}
		if n != ri.nodes || tk != ri.toks {
			return fmt.Errorf("core: %v: record has %d nodes/%d toks, descriptor %d/%d", ri, n, tk, ri.nodes, ri.toks)
		}
		// Token nesting across the whole sequence must balance.
		r := s.dict.NewReader(tokenBytes)
		for r.More() {
			t, err := r.Next()
			if err != nil {
				return err
			}
			if t.IsBegin() {
				stack = append(stack, t.MatchingEnd())
			} else if t.IsEnd() {
				if len(stack) == 0 || stack[len(stack)-1] != t.Kind {
					return fmt.Errorf("core: %v: unbalanced token %s", ri, t.Kind)
				}
				stack = stack[:len(stack)-1]
			}
		}
		nodes += uint64(ri.nodes)
		toks += uint64(ri.toks)
		bytes += uint64(ri.bytes)
		ri, ok, err = s.nextRangeInfo(cur.ctx, ri)
		if err != nil {
			return err
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("core: %d unclosed begin tokens at end of sequence", len(stack))
	}
	if ranges != s.rindex.Len()+len(s.idless) || idless != len(s.idless) {
		return fmt.Errorf("core: chain has %d ranges (%d id-less), the table %d (%d id-less)",
			ranges, idless, s.rindex.Len()+len(s.idless), len(s.idless))
	}
	if nodes != s.nodes || toks != s.tokens || bytes != s.bytes {
		return fmt.Errorf("core: counters nodes/toks/bytes %d/%d/%d, actual %d/%d/%d",
			s.nodes, s.tokens, s.bytes, nodes, toks, bytes)
	}
	// Interval disjointness: ascend the range index and check ordering by
	// start id with no overlap.
	var lastEnd uint64 // ids start at 1
	var bad error
	s.rindex.AscendAll(func(k uint64, ri *rangeInfo) bool {
		if ri.nodes <= 0 || uint64(ri.start) != k || k <= lastEnd {
			bad = fmt.Errorf("core: range index key %d holds %v, after id %d: id-less, misfiled or overlapping", k, ri, lastEnd)
			return false
		}
		lastEnd = uint64(ri.end())
		return true
	})
	if bad != nil {
		return bad
	}
	if err := s.recs.CheckInvariants(); err != nil {
		return err
	}
	return nil
}

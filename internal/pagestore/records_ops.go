package pagestore

import "fmt"

// Mutation and iteration operations of the RecordStore.

// InsertLast appends a record at the end of the sequence.
func (rs *RecordStore) InsertLast(data []byte) (Loc, []Move, error) {
	f, err := rs.pool.Fetch(rs.tail)
	if err != nil {
		return NilLoc, nil, err
	}
	last := slotPage(f.Data).lastSlot()
	rs.pool.Unpin(f, false)
	return rs.insertAt(rs.tail, last, data)
}

// InsertFirst prepends a record at the front of the sequence.
func (rs *RecordStore) InsertFirst(data []byte) (Loc, []Move, error) {
	return rs.insertAt(rs.head, nilSlot, data)
}

// InsertAfter places a record immediately after the record at loc.
func (rs *RecordStore) InsertAfter(loc Loc, data []byte) (Loc, []Move, error) {
	if err := rs.checkLive(loc); err != nil {
		return NilLoc, nil, err
	}
	return rs.insertAt(loc.Page, loc.Slot, data)
}

// InsertBefore places a record immediately before the record at loc.
func (rs *RecordStore) InsertBefore(loc Loc, data []byte) (Loc, []Move, error) {
	f, err := rs.pool.Fetch(loc.Page)
	if err != nil {
		return NilLoc, nil, err
	}
	p := slotPage(f.Data)
	if p.typ() != pageData || !p.live(loc.Slot) {
		rs.pool.Unpin(f, false)
		return NilLoc, nil, fmt.Errorf("%w: %v", ErrNoRecord, loc)
	}
	prev := p.slotPrev(loc.Slot)
	rs.pool.Unpin(f, false)
	return rs.insertAt(loc.Page, prev, data)
}

func (rs *RecordStore) checkLive(loc Loc) error {
	f, err := rs.pool.Fetch(loc.Page)
	if err != nil {
		return err
	}
	defer rs.pool.Unpin(f, false)
	p := slotPage(f.Data)
	if p.typ() != pageData || !p.live(loc.Slot) {
		return fmt.Errorf("%w: %v", ErrNoRecord, loc)
	}
	return nil
}

// insertAt inserts data (raw payload) after slot `after` on the given page
// (nilSlot = at the head of the page), splitting the page when necessary.
func (rs *RecordStore) insertAt(pageID PageID, after uint16, data []byte) (Loc, []Move, error) {
	stored, err := rs.encode(data)
	if err != nil {
		return NilLoc, nil, err
	}
	f, err := rs.pool.Fetch(pageID)
	if err != nil {
		return NilLoc, nil, err
	}
	p := slotPage(f.Data)
	if p.typ() != pageData {
		rs.pool.Unpin(f, false)
		return NilLoc, nil, fmt.Errorf("pagestore: page %d is not a data page", pageID)
	}

	// Fast path: direct insert.
	if s := p.insertAfter(after, stored); s != nilSlot {
		rs.pool.Unpin(f, true)
		return Loc{pageID, s}, nil, nil
	}
	// Second chance: compaction may create contiguous room.
	if fits, _ := p.roomFor(1, len(stored)); fits {
		p.compact()
		if s := p.insertAfter(after, stored); s != nilSlot {
			rs.pool.Unpin(f, true)
			return Loc{pageID, s}, nil, nil
		}
	}
	// Split: move every record after the insertion point to a new page.
	loc, moves, err := rs.splitInsert(f, after, stored)
	if err != nil {
		rs.pool.Unpin(f, true)
		return NilLoc, nil, err
	}
	rs.pool.Unpin(f, true)
	return loc, moves, nil
}

// Fits reports whether a record of n payload bytes placed next to another
// record on page fits there, compacting the page if need be — whether
// InsertBefore or InsertAfter at a location on page would place it without
// cutting or shifting the page. It reads the page's header and slot table,
// in place.
func (rs *RecordStore) Fits(page PageID, n int) (bool, error) {
	stored := stubSize
	if n+1 <= rs.inlineMax() {
		stored = n + 1
	}
	var fits bool
	err := rs.pool.View(page, func(data []byte) error {
		p := slotPage(data)
		if p.typ() != pageData {
			return fmt.Errorf("pagestore: page %d is not a data page", page)
		}
		fits, _ = p.roomFor(1, stored)
		return nil
	})
	return fits, err
}

// PageRecords calls fn for each record on page in record order, with its
// location and, for an inline record, its payload; a spilled record's is
// nil. The payload aliases the page: fn reads it in place, keeps none of
// it, and calls nothing on the store.
func (rs *RecordStore) PageRecords(page PageID, fn func(loc Loc, payload []byte)) error {
	return rs.pool.View(page, func(data []byte) error {
		p := slotPage(data)
		if p.typ() != pageData {
			return fmt.Errorf("pagestore: page %d is not a data page", page)
		}
		for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
			var payload []byte
			if stored := p.payload(s); len(stored) > 0 && stored[0] == recInline {
				payload = stored[1:]
			}
			fn(Loc{page, s}, payload)
		}
		return nil
	})
}

// splitInsert places stored after slot `after` on the pinned page f, which
// lacks room for it. The records after the insertion point (the tail) leave
// P: to the head of P's next page when that page holds them all after
// compaction, together with the new record when P still lacks room for it
// (the B*-tree's overflow before a split); otherwise to a new page spliced in
// after P. Returns the new record's location and the relocated records.
func (rs *RecordStore) splitInsert(f *Frame, after uint16, stored []byte) (Loc, []Move, error) {
	p := slotPage(f.Data)

	// Gather the tail: all records strictly after the insertion point.
	var tailSlots []uint16
	tailBytes := 0
	start := p.firstSlot()
	if after != nilSlot {
		start = p.slotNext(after)
	}
	for s := start; s != nilSlot; s = p.slotNext(s) {
		tailSlots = append(tailSlots, s)
		tailBytes += int(p.slotLen(s))
	}
	// With the tail gone its slots are free, so the new record costs P no
	// slot entry.
	newOnP := len(tailSlots) > 0 &&
		headerSize+p.nslots()*slotSize+p.usedBytes()-tailBytes+len(stored) <= p.usable()
	if next := p.next(); next != InvalidPage {
		loc, moves, ok, err := rs.shiftInsert(f, next, after, tailSlots, tailBytes, stored, newOnP)
		if ok || err != nil {
			return loc, moves, err
		}
	}
	rs.stats.Splits++

	// New page Q spliced after P in the chain.
	qf, err := rs.pool.NewPage()
	if err != nil {
		return NilLoc, nil, err
	}
	initDataPage(qf.Data)
	q := slotPage(qf.Data)
	if err := rs.linkAfter(f, qf); err != nil {
		rs.pool.Unpin(qf, true)
		return NilLoc, nil, err
	}

	// Move the tail records into Q, preserving order.
	var moves []Move
	qPrev := uint16(nilSlot)
	for _, s := range tailSlots {
		payload := p.payload(s)
		ns := q.insertAfter(qPrev, payload)
		if ns == nilSlot {
			rs.pool.Unpin(qf, true)
			return NilLoc, nil, fmt.Errorf("pagestore: split overflow moving %d bytes", len(payload))
		}
		moves = append(moves, Move{From: Loc{f.ID, s}, To: Loc{qf.ID, ns}})
		qPrev = ns
	}
	rs.stats.Moves += uint64(len(moves))
	for _, s := range tailSlots {
		p.deleteSlot(s)
	}
	p.compact()

	// Place the new record: end of P, else head of Q, else its own page
	// between them.
	if s := p.insertAfter(after, stored); s != nilSlot {
		rs.pool.Unpin(qf, true)
		return Loc{f.ID, s}, moves, nil
	}
	if s := q.insertAfter(nilSlot, stored); s != nilSlot {
		rs.pool.Unpin(qf, true)
		return Loc{qf.ID, s}, moves, nil
	}
	rs.stats.Splits++
	rf, err := rs.pool.NewPage()
	if err != nil {
		rs.pool.Unpin(qf, true)
		return NilLoc, nil, err
	}
	initDataPage(rf.Data)
	r := slotPage(rf.Data)
	if err := rs.linkAfter(f, rf); err != nil {
		rs.pool.Unpin(rf, true)
		rs.pool.Unpin(qf, true)
		return NilLoc, nil, err
	}
	s := r.insertAfter(nilSlot, stored)
	rs.pool.Unpin(rf, true)
	rs.pool.Unpin(qf, true)
	if s == nilSlot {
		return NilLoc, nil, fmt.Errorf("pagestore: record does not fit an empty page")
	}
	return Loc{rf.ID, s}, moves, nil
}

// shiftInsert is splitInsert's first choice: it moves P's tail (tailBytes in
// all), preceded by the new record unless newOnP, to the head of P's next
// page when that page holds them all after compaction, and then places the
// new record on P when newOnP. ok is false, with nothing changed, when the
// next page lacks the room.
func (rs *RecordStore) shiftInsert(f *Frame, next PageID, after uint16, tailSlots []uint16, tailBytes int, stored []byte, newOnP bool) (loc Loc, moves []Move, ok bool, err error) {
	k, n := len(tailSlots), tailBytes
	if !newOnP {
		k, n = k+1, n+len(stored)
	}
	nf, err := rs.pool.Fetch(next)
	if err != nil {
		return NilLoc, nil, false, err
	}
	p, q := slotPage(f.Data), slotPage(nf.Data)
	fits, contiguous := q.roomFor(k, n)
	if q.typ() != pageData || !fits {
		rs.pool.Unpin(nf, false)
		return NilLoc, nil, false, nil
	}
	if !contiguous {
		q.compact()
	}
	qPrev := uint16(nilSlot)
	if !newOnP {
		qPrev = q.insertAfter(nilSlot, stored)
		loc = Loc{nf.ID, qPrev}
	}
	moves = make([]Move, 0, len(tailSlots))
	for _, s := range tailSlots {
		qPrev = q.insertAfter(qPrev, p.payload(s))
		moves = append(moves, Move{From: Loc{f.ID, s}, To: Loc{nf.ID, qPrev}})
	}
	rs.pool.Unpin(nf, true)
	rs.stats.Shifts++
	rs.stats.Moves += uint64(len(moves))
	for _, s := range tailSlots {
		p.deleteSlot(s)
	}
	if newOnP {
		s := p.insertAfter(after, stored)
		if s == nilSlot {
			p.compact()
			s = p.insertAfter(after, stored)
		}
		loc = Loc{f.ID, s}
	}
	return loc, moves, true, nil
}

// linkAfter splices the pinned new page nf into the chain right after the
// pinned page f.
func (rs *RecordStore) linkAfter(f, nf *Frame) error {
	p := slotPage(f.Data)
	np := slotPage(nf.Data)
	oldNext := p.next()
	np.setPrev(f.ID)
	np.setNext(oldNext)
	p.setNext(nf.ID)
	if oldNext != InvalidPage {
		of, err := rs.pool.Fetch(oldNext)
		if err != nil {
			return err
		}
		slotPage(of.Data).setPrev(nf.ID)
		rs.pool.Unpin(of, true)
	} else {
		rs.tail = nf.ID
		if err := rs.syncMeta(); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the record at loc, freeing any overflow chain. Empty pages
// (other than the last remaining one) are unlinked and freed.
func (rs *RecordStore) Delete(loc Loc) error {
	f, err := rs.pool.Fetch(loc.Page)
	if err != nil {
		return err
	}
	p := slotPage(f.Data)
	if p.typ() != pageData || !p.live(loc.Slot) {
		rs.pool.Unpin(f, false)
		return fmt.Errorf("%w: %v", ErrNoRecord, loc)
	}
	stored := p.payload(loc.Slot)
	if err := rs.freeOverflow(stored); err != nil {
		rs.pool.Unpin(f, true)
		return err
	}
	p.deleteSlot(loc.Slot)
	if p.nlive() == 0 && rs.head != rs.tail {
		return rs.unlinkAndFree(f)
	}
	return rs.pool.Unpin(f, true)
}

// unlinkAndFree removes the pinned empty page f from the chain and frees it.
func (rs *RecordStore) unlinkAndFree(f *Frame) error {
	p := slotPage(f.Data)
	prev, next := p.prev(), p.next()
	if prev != InvalidPage {
		pf, err := rs.pool.Fetch(prev)
		if err != nil {
			rs.pool.Unpin(f, true)
			return err
		}
		slotPage(pf.Data).setNext(next)
		rs.pool.Unpin(pf, true)
	} else {
		rs.head = next
	}
	if next != InvalidPage {
		nf, err := rs.pool.Fetch(next)
		if err != nil {
			rs.pool.Unpin(f, true)
			return err
		}
		slotPage(nf.Data).setPrev(prev)
		rs.pool.Unpin(nf, true)
	} else {
		rs.tail = prev
	}
	if err := rs.syncMeta(); err != nil {
		rs.pool.Unpin(f, true)
		return err
	}
	return rs.pool.FreePage(f)
}

// Update replaces the payload of the record at loc. When the new payload
// fits in place the location is unchanged; otherwise the record is relocated
// (possibly splitting the page) and the new location plus any moves of other
// records are returned.
func (rs *RecordStore) Update(loc Loc, data []byte) (Loc, []Move, error) {
	stored, err := rs.encode(data)
	if err != nil {
		return NilLoc, nil, err
	}
	f, err := rs.pool.Fetch(loc.Page)
	if err != nil {
		return NilLoc, nil, err
	}
	p := slotPage(f.Data)
	if p.typ() != pageData || !p.live(loc.Slot) {
		rs.pool.Unpin(f, false)
		return NilLoc, nil, fmt.Errorf("%w: %v", ErrNoRecord, loc)
	}
	if err := rs.freeOverflow(p.payload(loc.Slot)); err != nil {
		rs.pool.Unpin(f, true)
		return NilLoc, nil, err
	}
	if p.updateInPlace(loc.Slot, stored) {
		rs.pool.Unpin(f, true)
		return loc, nil, nil
	}
	// Relocate: delete, then insert after the same predecessor.
	after := p.slotPrev(loc.Slot)
	p.deleteSlot(loc.Slot)
	rs.pool.Unpin(f, true)
	return rs.insertAt(loc.Page, after, data)
}

// First returns the location of the first record, or ok=false when empty.
func (rs *RecordStore) First() (Loc, bool, error) {
	return rs.firstFrom(rs.head)
}

func (rs *RecordStore) firstFrom(page PageID) (Loc, bool, error) {
	for page != InvalidPage {
		f, err := rs.pool.Fetch(page)
		if err != nil {
			return NilLoc, false, err
		}
		p := slotPage(f.Data)
		s := p.firstSlot()
		next := p.next()
		rs.pool.Unpin(f, false)
		if s != nilSlot {
			return Loc{page, s}, true, nil
		}
		page = next
	}
	return NilLoc, false, nil
}

// Last returns the location of the last record, or ok=false when empty.
func (rs *RecordStore) Last() (Loc, bool, error) {
	page := rs.tail
	for page != InvalidPage {
		f, err := rs.pool.Fetch(page)
		if err != nil {
			return NilLoc, false, err
		}
		p := slotPage(f.Data)
		s := p.lastSlot()
		prev := p.prev()
		rs.pool.Unpin(f, false)
		if s != nilSlot {
			return Loc{page, s}, true, nil
		}
		page = prev
	}
	return NilLoc, false, nil
}

// Next returns the location following loc in record order.
func (rs *RecordStore) Next(loc Loc) (Loc, bool, error) {
	f, err := rs.pool.Fetch(loc.Page)
	if err != nil {
		return NilLoc, false, err
	}
	p := slotPage(f.Data)
	if !p.live(loc.Slot) {
		rs.pool.Unpin(f, false)
		return NilLoc, false, fmt.Errorf("%w: %v", ErrNoRecord, loc)
	}
	s := p.slotNext(loc.Slot)
	next := p.next()
	rs.pool.Unpin(f, false)
	if s != nilSlot {
		return Loc{loc.Page, s}, true, nil
	}
	return rs.firstFrom(next)
}

// Prev returns the location preceding loc in record order.
func (rs *RecordStore) Prev(loc Loc) (Loc, bool, error) {
	f, err := rs.pool.Fetch(loc.Page)
	if err != nil {
		return NilLoc, false, err
	}
	p := slotPage(f.Data)
	if !p.live(loc.Slot) {
		rs.pool.Unpin(f, false)
		return NilLoc, false, fmt.Errorf("%w: %v", ErrNoRecord, loc)
	}
	s := p.slotPrev(loc.Slot)
	prev := p.prev()
	rs.pool.Unpin(f, false)
	if s != nilSlot {
		return Loc{loc.Page, s}, true, nil
	}
	for prev != InvalidPage {
		f, err := rs.pool.Fetch(prev)
		if err != nil {
			return NilLoc, false, err
		}
		p := slotPage(f.Data)
		s := p.lastSlot()
		pp := p.prev()
		rs.pool.Unpin(f, false)
		if s != nilSlot {
			return Loc{prev, s}, true, nil
		}
		prev = pp
	}
	return NilLoc, false, nil
}

// Scan calls fn for each record in order with its location and resolved
// payload. fn returning false stops the scan.
func (rs *RecordStore) Scan(fn func(loc Loc, payload []byte) bool) error {
	page := rs.head
	for page != InvalidPage {
		f, err := rs.pool.Fetch(page)
		if err != nil {
			return err
		}
		p := slotPage(f.Data)
		for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
			payload, err := rs.resolve(p.payload(s))
			if err != nil {
				rs.pool.Unpin(f, false)
				return err
			}
			if !fn(Loc{page, s}, payload) {
				rs.pool.Unpin(f, false)
				return nil
			}
		}
		next := p.next()
		rs.pool.Unpin(f, false)
		page = next
	}
	return nil
}

// Len returns the number of records (by walking the chain).
func (rs *RecordStore) Len() (int, error) {
	n := 0
	page := rs.head
	for page != InvalidPage {
		f, err := rs.pool.Fetch(page)
		if err != nil {
			return 0, err
		}
		p := slotPage(f.Data)
		n += p.nlive()
		next := p.next()
		rs.pool.Unpin(f, false)
		page = next
	}
	return n, nil
}

// DataPages returns the number of pages in the record chain.
func (rs *RecordStore) DataPages() (int, error) {
	n := 0
	page := rs.head
	for page != InvalidPage {
		f, err := rs.pool.Fetch(page)
		if err != nil {
			return 0, err
		}
		next := slotPage(f.Data).next()
		rs.pool.Unpin(f, false)
		page = next
		n++
	}
	return n, nil
}

// CheckInvariants verifies chain and page-level invariants; it is used by
// tests and returns the first violation found.
func (rs *RecordStore) CheckInvariants() error {
	page := rs.head
	var prev PageID
	for page != InvalidPage {
		f, err := rs.pool.Fetch(page)
		if err != nil {
			return err
		}
		p := slotPage(f.Data)
		if p.typ() != pageData {
			rs.pool.Unpin(f, false)
			return fmt.Errorf("page %d: not a data page", page)
		}
		if p.prev() != prev {
			rs.pool.Unpin(f, false)
			return fmt.Errorf("page %d: prev = %d, want %d", page, p.prev(), prev)
		}
		// Order list must be consistent with nlive and doubly linked.
		count := 0
		ps := uint16(nilSlot)
		for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
			if p.slotPrev(s) != ps {
				rs.pool.Unpin(f, false)
				return fmt.Errorf("page %d slot %d: bad prev link", page, s)
			}
			if !p.live(s) {
				rs.pool.Unpin(f, false)
				return fmt.Errorf("page %d slot %d: dead slot in order list", page, s)
			}
			off := int(p.slotPayloadOff(s))
			if off < p.heapStart() || off+int(p.slotLen(s)) > p.usable() {
				rs.pool.Unpin(f, false)
				return fmt.Errorf("page %d slot %d: payload out of heap", page, s)
			}
			ps = s
			count++
			if count > p.nslots() {
				rs.pool.Unpin(f, false)
				return fmt.Errorf("page %d: order list cycle", page)
			}
		}
		if p.lastSlot() != ps {
			rs.pool.Unpin(f, false)
			return fmt.Errorf("page %d: lastSlot = %d, want %d", page, p.lastSlot(), ps)
		}
		if count != p.nlive() {
			rs.pool.Unpin(f, false)
			return fmt.Errorf("page %d: nlive = %d, order list has %d", page, p.nlive(), count)
		}
		next := p.next()
		rs.pool.Unpin(f, false)
		prev = page
		page = next
	}
	if prev != rs.tail {
		return fmt.Errorf("tail = %d, chain ends at %d", rs.tail, prev)
	}
	return nil
}

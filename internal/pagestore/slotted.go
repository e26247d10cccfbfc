package pagestore

import (
	"encoding/binary"
	"sync"
)

// Slotted data pages.
//
// A data page holds variable-length record payloads in a heap growing down
// from the end of the page, addressed through a slot table growing up from
// the header. Slot ids are stable for the life of a record on the page: the
// record order is maintained as a doubly-linked list threaded through the
// slot entries, so inserting or deleting a record never renumbers its
// neighbours. Records therefore only "move" (change address) when a page
// splits — the caller receives explicit move notifications for index
// maintenance.
//
// Layout:
//
//	header  (24 bytes)
//	  0  type       byte   (pageData, pageOverflow, pageMeta)
//	  1  flags      byte
//	  2  nslots     uint16  slot table size, including free slots
//	  4  nlive      uint16  live records
//	  6  heapStart  uint16  lowest offset occupied by the heap
//	  8  firstSlot  uint16  order list head (nilSlot if empty)
//	  10 lastSlot   uint16  order list tail
//	  12 freeSlot   uint16  free slot chain head
//	  14 next       uint32  next page in document-order chain
//	  18 prev       uint32  previous page
//	  22 (reserved) uint16
//	slot table (8 bytes per slot, from offset 24)
//	  +0 off   uint16  heap offset of payload (nilSlot when slot is free)
//	  +2 len   uint16  payload length
//	  +4 next  uint16  next slot in record order / next free slot
//	  +6 prev  uint16  previous slot in record order
//	free space
//	heap (grows down from the page end)

// Page types.
const (
	pageFree     = 0
	pageData     = 1
	pageOverflow = 2
	pageMeta     = 3
)

const (
	headerSize = 24
	slotSize   = 8
	nilSlot    = 0xFFFF
)

type slotPage []byte

func (p slotPage) typ() byte     { return p[0] }
func (p slotPage) setTyp(t byte) { p[0] = t }
func (p slotPage) nslots() int   { return int(binary.LittleEndian.Uint16(p[2:])) }
func (p slotPage) setNslots(n int) {
	binary.LittleEndian.PutUint16(p[2:], uint16(n))
}
func (p slotPage) nlive() int { return int(binary.LittleEndian.Uint16(p[4:])) }
func (p slotPage) setNlive(n int) {
	binary.LittleEndian.PutUint16(p[4:], uint16(n))
}
func (p slotPage) heapStart() int { return int(binary.LittleEndian.Uint16(p[6:])) }
func (p slotPage) setHeapStart(n int) {
	binary.LittleEndian.PutUint16(p[6:], uint16(n))
}
func (p slotPage) firstSlot() uint16 { return binary.LittleEndian.Uint16(p[8:]) }
func (p slotPage) setFirstSlot(s uint16) {
	binary.LittleEndian.PutUint16(p[8:], s)
}
func (p slotPage) lastSlot() uint16 { return binary.LittleEndian.Uint16(p[10:]) }
func (p slotPage) setLastSlot(s uint16) {
	binary.LittleEndian.PutUint16(p[10:], s)
}
func (p slotPage) freeSlot() uint16 { return binary.LittleEndian.Uint16(p[12:]) }
func (p slotPage) setFreeSlot(s uint16) {
	binary.LittleEndian.PutUint16(p[12:], s)
}
func (p slotPage) next() PageID { return PageID(binary.LittleEndian.Uint32(p[14:])) }
func (p slotPage) setNext(id PageID) {
	binary.LittleEndian.PutUint32(p[14:], uint32(id))
}
func (p slotPage) prev() PageID { return PageID(binary.LittleEndian.Uint32(p[18:])) }
func (p slotPage) setPrev(id PageID) {
	binary.LittleEndian.PutUint32(p[18:], uint32(id))
}

func slotOff(s uint16) int { return headerSize + int(s)*slotSize }

func (p slotPage) slotPayloadOff(s uint16) uint16 {
	return binary.LittleEndian.Uint16(p[slotOff(s):])
}
func (p slotPage) setSlotPayloadOff(s, v uint16) {
	binary.LittleEndian.PutUint16(p[slotOff(s):], v)
}
func (p slotPage) slotLen(s uint16) uint16 {
	return binary.LittleEndian.Uint16(p[slotOff(s)+2:])
}
func (p slotPage) setSlotLen(s, v uint16) {
	binary.LittleEndian.PutUint16(p[slotOff(s)+2:], v)
}
func (p slotPage) slotNext(s uint16) uint16 {
	return binary.LittleEndian.Uint16(p[slotOff(s)+4:])
}
func (p slotPage) setSlotNext(s, v uint16) {
	binary.LittleEndian.PutUint16(p[slotOff(s)+4:], v)
}
func (p slotPage) slotPrev(s uint16) uint16 {
	return binary.LittleEndian.Uint16(p[slotOff(s)+6:])
}
func (p slotPage) setSlotPrev(s, v uint16) {
	binary.LittleEndian.PutUint16(p[slotOff(s)+6:], v)
}

// usable returns the page bytes available to the slotted layout: the heap
// grows down from here, leaving the checksum trailer untouched.
func (p slotPage) usable() int { return len(p) - PageTrailerSize }

// initDataPage formats b as an empty data page.
func initDataPage(b []byte) {
	for i := range b[:headerSize] {
		b[i] = 0
	}
	p := slotPage(b)
	p.setTyp(pageData)
	p.setHeapStart(p.usable())
	p.setFirstSlot(nilSlot)
	p.setLastSlot(nilSlot)
	p.setFreeSlot(nilSlot)
}

// payload returns the record bytes of a live slot (aliasing the page buffer).
func (p slotPage) payload(s uint16) []byte {
	off := p.slotPayloadOff(s)
	return p[off : off+p.slotLen(s)]
}

// live reports whether slot s holds a record.
func (p slotPage) live(s uint16) bool {
	return int(s) < p.nslots() && p.slotPayloadOff(s) != nilSlot
}

// roomFor reports whether k more records of n bytes in all fit on the page
// after compaction, and whether they fit without it. New records take free
// slots before they grow the slot table. It is the page's one room rule:
// every insert and every placement decision asks it.
func (p slotPage) roomFor(k, n int) (fits, contiguous bool) {
	for s := p.freeSlot(); s != nilSlot && k > 0; s = p.slotNext(s) {
		k--
	}
	table := headerSize + (p.nslots()+k)*slotSize
	if table+n <= p.heapStart() {
		return true, true // the heap holds at most what lies above heapStart
	}
	return table+p.usedBytes()+n <= p.usable(), false
}

// allocSlot grabs a slot id from the free chain or extends the table.
// Returns nilSlot if there is no room to extend.
func (p slotPage) allocSlot() uint16 {
	if s := p.freeSlot(); s != nilSlot {
		p.setFreeSlot(p.slotNext(s))
		return s
	}
	n := p.nslots()
	if headerSize+(n+1)*slotSize > p.heapStart() {
		return nilSlot
	}
	p.setNslots(n + 1)
	return uint16(n)
}

func (p slotPage) releaseSlot(s uint16) {
	p.setSlotPayloadOff(s, nilSlot)
	p.setSlotLen(s, 0)
	p.setSlotNext(s, p.freeSlot())
	p.setSlotPrev(s, nilSlot)
	p.setFreeSlot(s)
}

// insertPayload writes the payload into the heap and returns its offset.
// The caller has verified capacity (possibly calling compact first).
func (p slotPage) insertPayload(data []byte) uint16 {
	off := p.heapStart() - len(data)
	copy(p[off:], data)
	p.setHeapStart(off)
	return uint16(off)
}

// insertAfter inserts a record after slot `after` in record order
// (after == nilSlot means insert at the head). It returns the new slot id,
// or nilSlot if the page lacks space (caller should compact or split).
func (p slotPage) insertAfter(after uint16, data []byte) uint16 {
	if _, contiguous := p.roomFor(1, len(data)); !contiguous {
		return nilSlot
	}
	s := p.allocSlot()
	if s == nilSlot {
		return nilSlot
	}
	off := p.insertPayload(data)
	p.setSlotPayloadOff(s, off)
	p.setSlotLen(s, uint16(len(data)))

	var nxt uint16
	if after == nilSlot {
		nxt = p.firstSlot()
		p.setFirstSlot(s)
	} else {
		nxt = p.slotNext(after)
		p.setSlotNext(after, s)
	}
	p.setSlotPrev(s, after)
	p.setSlotNext(s, nxt)
	if nxt == nilSlot {
		p.setLastSlot(s)
	} else {
		p.setSlotPrev(nxt, s)
	}
	p.setNlive(p.nlive() + 1)
	return s
}

// deleteSlot removes the record in slot s from the order list and frees its
// slot. Heap space is reclaimed on the next compaction.
func (p slotPage) deleteSlot(s uint16) {
	prev, next := p.slotPrev(s), p.slotNext(s)
	if prev == nilSlot {
		p.setFirstSlot(next)
	} else {
		p.setSlotNext(prev, next)
	}
	if next == nilSlot {
		p.setLastSlot(prev)
	} else {
		p.setSlotPrev(next, prev)
	}
	p.releaseSlot(s)
	p.setNlive(p.nlive() - 1)
}

// compact repacks the heap so that free space is contiguous. Slot ids and
// record order are unchanged. The heap is copied out to a pooled scratch
// buffer, not a fresh one: a page-full merge compacts its page, and an 8 KiB
// allocation per compaction was most of what the merges cost.
func (p slotPage) compact() {
	base := p.heapStart()
	scratch := compactScratch.Get().(*[]byte)
	heap := append((*scratch)[:0], p[base:p.usable()]...)
	p.setHeapStart(p.usable())
	for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
		off := int(p.slotPayloadOff(s)) - base
		p.setSlotPayloadOff(s, p.insertPayload(heap[off:off+int(p.slotLen(s))]))
	}
	*scratch = heap
	compactScratch.Put(scratch)
}

var compactScratch = sync.Pool{New: func() any { return new([]byte) }}

// updateInPlace replaces the payload of slot s if space permits (after
// compaction when needed). Reports success. On failure the old payload is
// discarded (slot length zero) and the caller must complete the relocation
// by deleting the slot and inserting the new payload elsewhere.
func (p slotPage) updateInPlace(s uint16, data []byte) bool {
	if len(data) <= int(p.slotLen(s)) {
		// Shrinking or equal: overwrite in place, truncate length.
		off := p.slotPayloadOff(s)
		copy(p[off:], data)
		p.setSlotLen(s, uint16(len(data)))
		return true
	}
	// Growing: needs heap room for the new copy (old copy freed lazily).
	need := len(data)
	if p.heapStart()-(headerSize+p.nslots()*slotSize) < need {
		// Compact with the old record logically removed.
		p.setSlotLen(s, 0)
		p.compact()
		if p.heapStart()-(headerSize+p.nslots()*slotSize) < need {
			return false
		}
	}
	off := p.insertPayload(data)
	p.setSlotPayloadOff(s, off)
	p.setSlotLen(s, uint16(len(data)))
	return true
}

// slotsInOrder returns the live slots in record order (testing helper).
func (p slotPage) slotsInOrder() []uint16 {
	var out []uint16
	for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
		out = append(out, s)
	}
	return out
}

// usedBytes returns the payload bytes of all live records.
func (p slotPage) usedBytes() int {
	n := 0
	for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
		n += int(p.slotLen(s))
	}
	return n
}

package pagestore

import (
	"encoding/binary"
	"fmt"
)

// Raw page inspection for the recovery subsystem.
//
// InspectPage classifies an arbitrary page image using nothing but the
// slotted-page layout invariants — no buffer pool, no record store, no
// assumption that the image came from a healthy file. It is the first line
// of the salvage pipeline: pages whose checksum verifies but whose structure
// lies are caught here, before their contents can mislead the chain walk.
//
// The function must never panic, whatever bytes it is handed: every offset
// and length read from the image is bounds-checked before use. The fuzz
// target in salvage_test.go holds it to that.

// PageKind is the salvage-level classification of a raw page image.
type PageKind int

const (
	// KindFree is an unused page (type byte 0, e.g. freshly allocated).
	KindFree PageKind = iota
	// KindMeta is a record-store meta page.
	KindMeta
	// KindData is a slotted data page.
	KindData
	// KindOverflow is an overflow-chain page.
	KindOverflow
	// KindUnknown is a page whose type byte matches no known layout
	// (index pages of other subsystems land here; see diskbtree.InspectNode).
	KindUnknown
)

func (k PageKind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindMeta:
		return "meta"
	case KindData:
		return "data"
	case KindOverflow:
		return "overflow"
	}
	return "unknown"
}

// RawRecord is one live record payload found on a data page, in record
// order. Stored is the stored form (inline body or overflow stub), copied
// out of the page image.
type RawRecord struct {
	Slot   uint16
	Stored []byte
}

// PageInfo is the result of classifying one raw page image.
type PageInfo struct {
	Kind PageKind
	// Err reports a structural violation for the claimed kind; the page
	// should be quarantined, not trusted. Kind keeps the claimed type.
	Err error

	// Data pages.
	Next, Prev PageID
	Records    []RawRecord

	// Meta pages.
	MetaHead, MetaTail PageID
	MetaUser           []byte

	// Overflow pages.
	OvflUsed int
	OvflNext PageID
}

// InspectPage classifies a full page image (including the checksum trailer,
// which it ignores — verify separately with VerifyChecksum). It never
// panics on arbitrary input.
func InspectPage(b []byte) PageInfo {
	if len(b) < headerSize+PageTrailerSize {
		return PageInfo{Kind: KindUnknown, Err: fmt.Errorf("pagestore: image of %d bytes is smaller than a page header", len(b))}
	}
	switch b[0] {
	case pageFree:
		return PageInfo{Kind: KindFree}
	case pageMeta:
		return inspectMeta(b)
	case pageData:
		return inspectData(b)
	case pageOverflow:
		return inspectOverflow(b)
	}
	return PageInfo{Kind: KindUnknown, Err: fmt.Errorf("pagestore: unknown page type %#x", b[0])}
}

func inspectMeta(b []byte) PageInfo {
	info := PageInfo{Kind: KindMeta}
	usable := len(b) - PageTrailerSize
	ul := int(binary.LittleEndian.Uint16(b[10:]))
	if metaHeader+ul > usable {
		info.Err = fmt.Errorf("pagestore: meta user blob of %d bytes overruns the page", ul)
		return info
	}
	info.MetaHead = PageID(binary.LittleEndian.Uint32(b[2:]))
	info.MetaTail = PageID(binary.LittleEndian.Uint32(b[6:]))
	info.MetaUser = append([]byte(nil), b[metaHeader:metaHeader+ul]...)
	if info.MetaHead == InvalidPage || info.MetaTail == InvalidPage {
		info.Err = fmt.Errorf("pagestore: meta page names invalid chain endpoints (head %d, tail %d)", info.MetaHead, info.MetaTail)
	}
	return info
}

func inspectData(b []byte) PageInfo {
	p := slotPage(b)
	info := PageInfo{Kind: KindData, Next: p.next(), Prev: p.prev()}
	usable := p.usable()
	nslots := p.nslots()
	heap := p.heapStart()
	if headerSize+nslots*slotSize > heap {
		info.Err = fmt.Errorf("pagestore: slot table (%d slots) overruns heap start %d", nslots, heap)
		return info
	}
	if heap > usable {
		info.Err = fmt.Errorf("pagestore: heap start %d beyond usable size %d", heap, usable)
		return info
	}
	// Walk the record-order list, validating every hop. The visit counter
	// bounds cycles: a healthy list visits each slot at most once.
	var (
		visited = make(map[uint16]bool, nslots)
		prev    = uint16(nilSlot)
		last    = uint16(nilSlot)
		count   int
	)
	for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
		if int(s) >= nslots {
			info.Err = fmt.Errorf("pagestore: order list names slot %d of %d", s, nslots)
			return info
		}
		if visited[s] {
			info.Err = fmt.Errorf("pagestore: order list cycles at slot %d", s)
			return info
		}
		visited[s] = true
		off := p.slotPayloadOff(s)
		length := p.slotLen(s)
		if off == nilSlot {
			info.Err = fmt.Errorf("pagestore: order list includes free slot %d", s)
			return info
		}
		if int(off) < heap || int(off)+int(length) > usable {
			info.Err = fmt.Errorf("pagestore: slot %d payload [%d:%d] outside heap [%d:%d]", s, off, int(off)+int(length), heap, usable)
			return info
		}
		if p.slotPrev(s) != prev {
			info.Err = fmt.Errorf("pagestore: slot %d back-link %d, want %d", s, p.slotPrev(s), prev)
			return info
		}
		stored := append([]byte(nil), b[off:int(off)+int(length)]...)
		if _, err := DecodeStored(stored); err != nil {
			info.Err = fmt.Errorf("pagestore: slot %d: %w", s, err)
			return info
		}
		info.Records = append(info.Records, RawRecord{Slot: s, Stored: stored})
		prev, last = s, s
		count++
	}
	if count != p.nlive() {
		info.Err = fmt.Errorf("pagestore: order list has %d records, header says %d", count, p.nlive())
		return info
	}
	if p.lastSlot() != last {
		info.Err = fmt.Errorf("pagestore: last slot %d, order list ends at %d", p.lastSlot(), last)
		return info
	}
	return info
}

func inspectOverflow(b []byte) PageInfo {
	info := PageInfo{Kind: KindOverflow}
	used := int(binary.LittleEndian.Uint16(b[2:]))
	max := len(b) - PageTrailerSize - ovflHeader
	if used <= 0 || used > max {
		info.Err = fmt.Errorf("pagestore: overflow page holds %d bytes (chunk max %d)", used, max)
		return info
	}
	info.OvflUsed = used
	info.OvflNext = PageID(binary.LittleEndian.Uint32(b[4:]))
	return info
}

// StoredRef is the decoded form of a stored record payload: either the
// inline body or an overflow-chain reference.
type StoredRef struct {
	Inline bool
	Data   []byte // inline body (aliases the input slice)
	Total  int    // overflow: total record bytes
	First  PageID // overflow: first chain page
}

// DecodeStored splits a stored payload into inline body or overflow stub.
// It performs only shape validation; overflow chains are resolved by the
// caller (see OverflowChunk for the per-page capacity).
func DecodeStored(stored []byte) (StoredRef, error) {
	if len(stored) == 0 {
		return StoredRef{}, fmt.Errorf("empty stored payload")
	}
	switch stored[0] {
	case recInline:
		return StoredRef{Inline: true, Data: stored[1:]}, nil
	case recOverflow:
		if len(stored) < stubSize {
			return StoredRef{}, fmt.Errorf("truncated overflow stub (%d bytes)", len(stored))
		}
		total := int(binary.LittleEndian.Uint32(stored[1:]))
		first := PageID(binary.LittleEndian.Uint32(stored[5:]))
		if total < 0 || total > MaxRecordSize {
			return StoredRef{}, fmt.Errorf("overflow stub total %d out of range", total)
		}
		if first == InvalidPage {
			return StoredRef{}, fmt.Errorf("overflow stub with no chain")
		}
		return StoredRef{Total: total, First: first}, nil
	}
	return StoredRef{}, fmt.Errorf("unknown stub flag %d", stored[0])
}

// OverflowChunk returns the payload capacity of one overflow page for the
// given (full) page size.
func OverflowChunk(pageSize int) int {
	return pageSize - PageTrailerSize - ovflHeader
}

// ReadOverflowData returns the chunk bytes of an overflow page image whose
// PageInfo has already validated the header (aliases the image).
func ReadOverflowData(b []byte, used int) []byte {
	return b[ovflHeader : ovflHeader+used]
}

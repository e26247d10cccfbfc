package pagestore

import (
	"errors"
	"fmt"
)

// Space is a page-level account of a record store's file: where its pages
// go and how full the record pages are. Fill figures are bytes held over
// the page bytes of their kind.
type Space struct {
	PageSize      int
	Pages         int   // page ids 1..MaxPageID
	DataPages     int   // slotted pages on the record chain
	DataBytes     int64 // stored record bytes on them (stubs for spilled records)
	OverflowPages int   // pages of the overflow chains the chain's records name
	OverflowBytes int64 // record bytes on them
	IndexPages    int   // pages of other layouts (the Full Index's nodes)
	FreePages     int   // every other page: freed, never written, or on no chain
}

// DataFill is the share of the data pages' bytes that records hold.
func (sp Space) DataFill() float64 { return fill(sp.DataBytes, sp.DataPages, sp.PageSize) }

// OverflowFill is the share of the overflow pages' bytes that records hold.
func (sp Space) OverflowFill() float64 {
	return fill(sp.OverflowBytes, sp.OverflowPages, sp.PageSize)
}

func fill(bytes int64, pages, size int) float64 {
	if pages == 0 {
		return 0
	}
	return float64(bytes) / float64(pages) / float64(size)
}

// InspectSpace reads every page of the pool's pager once (ids 1 through
// its MaxPageID) — a resident frame's bytes, which may not be written yet,
// else the pager's image, without caching it — and classifies it with
// InspectPage. A data page counts as data only when the chain from the meta
// page's head reaches it, and an overflow page only when a record on the
// chain names its overflow chain; what neither reaches (a page freed and
// not reused since, a leaked one) counts as free.
func InspectSpace(bp *BufferPool, meta PageID) (Space, error) {
	ext, ok := bp.pager.(interface{ MaxPageID() PageID })
	if !ok {
		return Space{}, fmt.Errorf("pagestore: pager %T has no page extent", bp.pager)
	}
	sp := Space{PageSize: bp.PageSize(), Pages: int(ext.MaxPageID())}
	var head PageID
	next := make(map[PageID]PageID)     // data page → its successor
	dataBytes := make(map[PageID]int64) // data page → stored bytes
	stubs := make(map[PageID][]PageID)  // data page → overflow chains its records name
	ovflNext := make(map[PageID]PageID) // overflow page → its successor
	ovflUsed := make(map[PageID]int)
	buf := make([]byte, bp.PageSize())
	for id := PageID(1); id <= ext.MaxPageID(); id++ {
		if err := bp.readThrough(id, buf); err != nil {
			if errors.Is(err, ErrFreedPage) {
				continue
			}
			return Space{}, fmt.Errorf("pagestore: page %d: %w", id, err)
		}
		info := InspectPage(buf)
		switch {
		case id == meta:
			if info.Kind != KindMeta || info.Err != nil {
				return Space{}, fmt.Errorf("pagestore: meta page %d: kind %v, %v", id, info.Kind, info.Err)
			}
			head = info.MetaHead
		case info.Kind == KindData && info.Err == nil:
			next[id] = info.Next
			for _, r := range info.Records {
				dataBytes[id] += int64(len(r.Stored))
				if ref, err := DecodeStored(r.Stored); err == nil && !ref.Inline {
					stubs[id] = append(stubs[id], ref.First)
				}
			}
		case info.Kind == KindOverflow && info.Err == nil:
			ovflNext[id] = info.OvflNext
			ovflUsed[id] = info.OvflUsed
		case info.Kind == KindUnknown:
			sp.IndexPages++
		}
	}
	// Walk the chain and the overflow chains in memory; a cycle or a
	// dangling link ends a walk.
	var firstOvfl []PageID
	onChain := make(map[PageID]bool)
	for id := head; id != InvalidPage && !onChain[id]; id = next[id] {
		if _, ok := next[id]; !ok {
			break
		}
		onChain[id] = true
		sp.DataPages++
		sp.DataBytes += dataBytes[id]
		firstOvfl = append(firstOvfl, stubs[id]...)
	}
	seen := make(map[PageID]bool)
	for _, first := range firstOvfl {
		for id := first; id != InvalidPage && !seen[id]; id = ovflNext[id] {
			if _, ok := ovflUsed[id]; !ok {
				break
			}
			seen[id] = true
			sp.OverflowPages++
			sp.OverflowBytes += int64(ovflUsed[id])
		}
	}
	sp.FreePages = sp.Pages - 1 - sp.DataPages - sp.OverflowPages - sp.IndexPages // 1: the meta page
	return sp, nil
}

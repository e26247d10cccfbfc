// Package recover is the storage stack's self-healing layer: salvage and
// rebuild, online backup, and point-in-time restore.
//
// The paper's storage model makes recovery unusually tractable: node
// identifiers are never stored, every index is derivable, and each range
// record is self-describing (id, start id, counts, then the token bytes).
// The token sequence held in the chained data pages is therefore the sole
// source of truth — everything else can be thrown away and regenerated. The
// salvage scanner exploits exactly that:
//
//  1. every page is read raw (no buffer pool, no record store) and
//     classified by its CRC trailer plus layout invariants
//     (pagestore.InspectPage, diskbtree.InspectNode);
//  2. surviving data pages are reassembled into chain fragments along
//     reciprocal next/prev links; fragments anchored by the meta page or
//     severed by a corrupt page are trusted, unanchored fragments are
//     presumed stale (freed pages persist on disk with valid checksums —
//     resurrecting them would be silent data corruption, the opposite of
//     repair);
//  3. each record is resolved (overflow chains walked raw), validated by
//     the caller's Codec (the core store replays the token stream and
//     cross-checks the header counts), and checked for identifier
//     conflicts against everything already accepted;
//  4. what cannot be recovered is quarantined into a reported "lost" set
//     with the missing identifier intervals, instead of failing the store.
//
// Rebuild then writes the accepted records as a fresh generation —
// side-by-side with the damaged one — and switches over by copying the new
// meta image onto the store's meta page id, all inside one WAL batch: a
// crash at any I/O boundary leaves the store either fully repaired or
// untouched.
package recover

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/diskbtree"
	"repro/internal/pagestore"
)

// RecordMeta is what the owning store's Codec distills from one record
// payload: its identity and the key interval it covers.
type RecordMeta struct {
	// ID is the record's own identifier (the store's range id).
	ID uint64 `json:"id"`
	// Key is the first key the record covers (the range's start node id).
	// Meaningless when Span is zero.
	Key uint64 `json:"key"`
	// Span is the number of keys covered; zero marks a keyless record.
	Span uint64 `json:"span"`
}

// End returns the last key covered (inclusive). Only meaningful for
// Span > 0.
func (m RecordMeta) End() uint64 { return m.Key + m.Span - 1 }

// SideRecordID is the record ID of a side record: store-wide state the
// owning store keeps in its chain, beside the meta page, so that salvage
// finds it without the meta page (core's name dictionary). Salvage hands a
// side record to the Codec's Inspect and keeps nothing else of it — it is
// not counted, ordered or conflict-checked — and Rebuild writes the Codec's
// SideRecord at the head of the new chain instead.
const SideRecordID = 0

// Codec teaches the recovery layer the owning store's record semantics
// without importing it (core implements this, avoiding an import cycle).
// A Codec may learn store-wide state from what Salvage shows it (side
// records, the meta blob) and give it back to Rebuild, so one Codec serves
// one Salvage and the Rebuild that follows it.
type Codec interface {
	// Inspect validates one record payload end to end (the core store
	// steps through its token stream) and returns its identity; ID
	// SideRecordID marks a side record. An error marks the record lost.
	Inspect(payload []byte) (RecordMeta, error)
	// DecodeAlloc parses the allocator state from the meta page's user
	// blob; ok is false when the blob is absent or malformed. Salvage calls
	// it after every Inspect.
	DecodeAlloc(user []byte) (nextKey, nextID uint64, ok bool)
	// EncodeAlloc serializes the rebuilt meta page's user blob.
	EncodeAlloc(nextKey, nextID uint64) []byte
	// SideRecord returns the side record the rebuilt chain starts with, or
	// nil for none.
	SideRecord() []byte
}

// PageFault describes one quarantined page.
type PageFault struct {
	Page   uint32 `json:"page"`
	Kind   string `json:"kind"` // "unreadable", "checksum", "structure", "meta", "unknown"
	Reason string `json:"reason"`
}

// Interval is an inclusive key interval.
type Interval struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// SalvagedRecord is one accepted record, in rebuilt document order.
type SalvagedRecord struct {
	Meta    RecordMeta
	Payload []byte
}

// Result is a salvage report. It doubles as the dry-run output of repair
// and the page-level half of verification reports.
type Result struct {
	PageSize   int    `json:"page_size"`
	MetaPage   uint32 `json:"meta_page"`
	Pages      int    `json:"pages_scanned"`
	DataPages  int    `json:"data_pages"`
	IndexPages int    `json:"index_pages"`

	BadPages []PageFault `json:"bad_pages,omitempty"`

	// Salvaged counts accepted records; Lost counts records inside trusted
	// fragments that could not be recovered (unresolvable overflow chain,
	// failed validation); Conflicts counts records rejected because their
	// identity clashed with already-accepted data (stale resurrections).
	Salvaged  int `json:"salvaged_records"`
	Lost      int `json:"lost_records"`
	Conflicts int `json:"conflicting_records"`

	// OrphanPages are structurally valid pages reachable from no trusted
	// chain fragment — typically pages freed before a reopen, whose stale
	// contents persist with valid checksums. They are never salvaged and
	// are zeroed by rebuild.
	OrphanPages []uint32 `json:"orphan_pages,omitempty"`

	// Missing lists key intervals in [1, NextKey) covered by no accepted
	// record. After corruption these are the lost ranges; note that keys
	// legitimately deleted before the damage also appear here, since the
	// allocator never reuses them.
	Missing []Interval `json:"missing_ids,omitempty"`

	NextKey uint64 `json:"next_key"`
	NextID  uint64 `json:"next_record_id"`

	// Clean reports that the store needs no repair: meta page good, one
	// complete head-to-tail chain, every record valid, no conflicts, no
	// bad pages.
	Clean bool     `json:"clean"`
	Notes []string `json:"notes,omitempty"`

	records    []SalvagedRecord
	allocPages []pagestore.PageID // every allocated page id the scan saw
}

// Records returns the accepted records in rebuilt document order.
func (r *Result) Records() []SalvagedRecord { return r.records }

// ErrNoExtent is returned when the pager cannot report its page extent.
var ErrNoExtent = errors.New("recover: pager does not expose MaxPageID; cannot scan raw pages")

type ovflPage struct {
	used int
	next pagestore.PageID
	data []byte
}

// Salvage scans every raw page behind p and reconstructs the record
// sequence without opening the store. It never writes.
func Salvage(p pagestore.Pager, metaPage pagestore.PageID, codec Codec) (*Result, error) {
	ext, ok := p.(interface{ MaxPageID() pagestore.PageID })
	if !ok {
		return nil, ErrNoExtent
	}
	if ext.MaxPageID() == pagestore.InvalidPage {
		// Any store that ever held data has an extent of at least its meta
		// page. A zero extent means the extent is unavailable (a wrapper in
		// the stack swallowed MaxPageID) or the file is empty; either way a
		// scan would see nothing and a subsequent rebuild would replace the
		// store with an empty generation while reporting zero losses.
		// Refuse rather than "salvage" a store we cannot see.
		return nil, fmt.Errorf("%w: pager reports a zero page extent", ErrNoExtent)
	}
	res := &Result{PageSize: p.PageSize(), MetaPage: uint32(metaPage)}

	var (
		max       = ext.MaxPageID()
		buf       = make([]byte, p.PageSize())
		dataPages = make(map[pagestore.PageID]pagestore.PageInfo)
		ovfl      = make(map[pagestore.PageID]ovflPage)
		bad       = make(map[pagestore.PageID]PageFault)
		allocated []pagestore.PageID
		metaOK    bool
		metaInfo  pagestore.PageInfo
	)
	quarantine := func(id pagestore.PageID, kind string, err error) {
		bad[id] = PageFault{Page: uint32(id), Kind: kind, Reason: err.Error()}
	}
	for id := pagestore.PageID(1); id <= max; id++ {
		if err := p.ReadPage(id, buf); err != nil {
			if errors.Is(err, pagestore.ErrFreedPage) || errors.Is(err, pagestore.ErrPageBounds) {
				continue // not allocated: nothing to salvage
			}
			allocated = append(allocated, id)
			quarantine(id, "unreadable", err)
			continue
		}
		allocated = append(allocated, id)
		if err := pagestore.VerifyChecksum(id, buf); err != nil {
			quarantine(id, "checksum", err)
			continue
		}
		info := pagestore.InspectPage(buf)
		if id == metaPage {
			if info.Kind == pagestore.KindMeta && info.Err == nil {
				metaOK = true
				metaInfo = info
			} else {
				err := info.Err
				if err == nil {
					err = fmt.Errorf("recover: meta page has kind %v", info.Kind)
				}
				quarantine(id, "meta", err)
			}
			continue
		}
		switch info.Kind {
		case pagestore.KindFree:
			// Unused; ignore.
		case pagestore.KindData:
			if info.Err != nil {
				quarantine(id, "structure", info.Err)
				break
			}
			dataPages[id] = info
		case pagestore.KindOverflow:
			if info.Err != nil {
				quarantine(id, "structure", info.Err)
				break
			}
			chunk := append([]byte(nil), pagestore.ReadOverflowData(buf, info.OvflUsed)...)
			ovfl[id] = ovflPage{used: info.OvflUsed, next: info.OvflNext, data: chunk}
		case pagestore.KindMeta:
			// A meta page that is not the store's meta page: a stale
			// generation. Derivable noise; rebuild zeroes it.
			res.OrphanPages = append(res.OrphanPages, uint32(id))
			res.Notes = append(res.Notes, fmt.Sprintf("page %d: stale meta page (old generation)", id))
		default:
			if isNode, nerr := diskbtree.InspectNode(buf); isNode && nerr == nil {
				// Index pages are derivable state: recognized, never
				// salvaged, rebuilt from the token sequence on reopen.
				res.IndexPages++
				break
			}
			err := info.Err
			if err == nil {
				err = fmt.Errorf("recover: unclassifiable page")
			}
			quarantine(id, "unknown", err)
		}
	}
	res.Pages = len(allocated)
	res.DataPages = len(dataPages)
	res.allocPages = allocated

	fragments, cyclePages := assembleFragments(dataPages)
	for _, id := range cyclePages {
		res.OrphanPages = append(res.OrphanPages, uint32(id))
		res.Notes = append(res.Notes, fmt.Sprintf("page %d: part of a page-chain cycle", id))
	}

	// Anchoring: decide which fragments to trust. Freed pages persist on
	// disk with valid checksums, so an unanchored fragment is presumed
	// stale — resurrecting deleted data would be silent corruption.
	headFrag := -1
	var accepted []int
	for i, frag := range fragments {
		first, last := frag[0], frag[len(frag)-1]
		fi, li := dataPages[first], dataPages[last]
		anchored := false
		if metaOK {
			for _, pg := range frag {
				if pg == metaInfo.MetaHead {
					anchored = true
					headFrag = i
				}
				if pg == metaInfo.MetaTail {
					anchored = true
				}
			}
		} else if fi.Prev == pagestore.InvalidPage {
			// The meta page itself is lost: trust fragments that claim to
			// start the chain.
			anchored = true
			res.Notes = append(res.Notes, fmt.Sprintf("page %d: accepted as chain head (meta page lost)", first))
		}
		if _, severed := bad[fi.Prev]; severed {
			anchored = true // predecessor destroyed; this fragment was cut off
		}
		if _, severed := bad[li.Next]; severed {
			anchored = true
		}
		if anchored {
			accepted = append(accepted, i)
		} else {
			for _, pg := range frag {
				res.OrphanPages = append(res.OrphanPages, uint32(pg))
			}
			n := 0
			for _, pg := range frag {
				n += len(dataPages[pg].Records)
			}
			if n > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf("pages %v: unanchored fragment with %d record(s) presumed stale, not salvaged", frag, n))
			}
		}
	}

	// chainComplete: the head fragment runs head → tail and terminates.
	chainComplete := false
	if metaOK && headFrag >= 0 {
		frag := fragments[headFrag]
		first, last := frag[0], frag[len(frag)-1]
		chainComplete = first == metaInfo.MetaHead &&
			last == metaInfo.MetaTail &&
			dataPages[last].Next == pagestore.InvalidPage &&
			dataPages[first].Prev == pagestore.InvalidPage
	}

	// Extract and validate records fragment by fragment.
	consumed := make(map[pagestore.PageID]bool)
	type fragRecords struct {
		frag int
		recs []SalvagedRecord
	}
	extracted := make([]fragRecords, 0, len(accepted))
	for _, i := range accepted {
		fr := fragRecords{frag: i}
		for _, pg := range fragments[i] {
			for _, raw := range dataPages[pg].Records {
				payload, err := resolveStored(raw.Stored, ovfl, bad, consumed, res.PageSize)
				if err != nil {
					res.Lost++
					res.Notes = append(res.Notes, fmt.Sprintf("page %d slot %d: %v", pg, raw.Slot, err))
					continue
				}
				meta, err := codec.Inspect(payload)
				if err != nil {
					res.Lost++
					res.Notes = append(res.Notes, fmt.Sprintf("page %d slot %d: invalid record: %v", pg, raw.Slot, err))
					continue
				}
				if meta.ID == SideRecordID {
					continue // the codec has it; Rebuild asks for it anew
				}
				fr.recs = append(fr.recs, SalvagedRecord{Meta: meta, Payload: payload})
			}
		}
		extracted = append(extracted, fr)
	}

	// Overflow pages no accepted record consumed are stale.
	for id := range ovfl {
		if !consumed[id] {
			res.OrphanPages = append(res.OrphanPages, uint32(id))
		}
	}

	// Order fragments: head first, then ascending by first covered key.
	// With sequentially loaded content key order is document order; after
	// arbitrary middle-of-document inserts the relative order of severed
	// fragments is a best-effort heuristic (the linking pages that knew it
	// are the ones destroyed) — flagged below so the report says so.
	sort.SliceStable(extracted, func(a, b int) bool {
		fa, fb := extracted[a], extracted[b]
		if fa.frag == headFrag || fb.frag == headFrag {
			return fa.frag == headFrag && fb.frag != headFrag
		}
		ka, kb := minKey(fa.recs), minKey(fb.recs)
		if ka != kb {
			return ka < kb
		}
		return fragments[fa.frag][0] < fragments[fb.frag][0]
	})
	if n := len(extracted); n > 2 || (n == 2 && headFrag < 0) {
		res.Notes = append(res.Notes, fmt.Sprintf("%d disconnected fragments: relative order reconstructed from key intervals (exact for sequentially loaded content)", n))
	}

	// Conflict pass: accept records in order, rejecting key-interval
	// overlaps and duplicate record ids — the accepted-first (head
	// fragment) copy wins.
	var cov coverage
	seenIDs := make(map[uint64]bool)
	for _, fr := range extracted {
		for _, rec := range fr.recs {
			if seenIDs[rec.Meta.ID] {
				res.Conflicts++
				res.Notes = append(res.Notes, fmt.Sprintf("record id %d: duplicate of an already-salvaged record, rejected", rec.Meta.ID))
				continue
			}
			if rec.Meta.Span > 0 && cov.overlaps(rec.Meta.Key, rec.Meta.End()) {
				res.Conflicts++
				res.Notes = append(res.Notes, fmt.Sprintf("record id %d: keys [%d..%d] overlap already-salvaged data, rejected", rec.Meta.ID, rec.Meta.Key, rec.Meta.End()))
				continue
			}
			if rec.Meta.Span > 0 {
				cov.add(rec.Meta.Key, rec.Meta.End())
			}
			seenIDs[rec.Meta.ID] = true
			res.records = append(res.records, rec)
		}
	}
	res.Salvaged = len(res.records)

	// Allocator state: trust the meta blob when present, never below what
	// the salvaged records imply.
	res.NextKey, res.NextID = 1, 1
	if metaOK {
		if nk, ni, ok := codec.DecodeAlloc(metaInfo.MetaUser); ok {
			res.NextKey, res.NextID = nk, ni
		}
	}
	for _, rec := range res.records {
		if rec.Meta.Span > 0 && rec.Meta.End()+1 > res.NextKey {
			res.NextKey = rec.Meta.End() + 1
		}
		if rec.Meta.ID+1 > res.NextID {
			res.NextID = rec.Meta.ID + 1
		}
	}

	res.Missing = cov.gaps(1, res.NextKey-1)
	for id, f := range bad {
		_ = id
		res.BadPages = append(res.BadPages, f)
	}
	sort.Slice(res.BadPages, func(a, b int) bool { return res.BadPages[a].Page < res.BadPages[b].Page })
	sort.Slice(res.OrphanPages, func(a, b int) bool { return res.OrphanPages[a] < res.OrphanPages[b] })

	res.Clean = metaOK && chainComplete && len(bad) == 0 && res.Lost == 0 && res.Conflicts == 0
	return res, nil
}

// assembleFragments partitions the valid data pages into maximal paths
// along reciprocal next/prev links. Pages trapped in a pointer cycle with
// no entry are returned separately.
func assembleFragments(dataPages map[pagestore.PageID]pagestore.PageInfo) ([][]pagestore.PageID, []pagestore.PageID) {
	recip := func(a, b pagestore.PageID) bool {
		ia, ok := dataPages[a]
		if !ok {
			return false
		}
		ib, ok := dataPages[b]
		return ok && ia.Next == b && ib.Prev == a
	}
	var starts []pagestore.PageID
	for id, info := range dataPages {
		if info.Prev == pagestore.InvalidPage || !recip(info.Prev, id) {
			starts = append(starts, id)
		}
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	seen := make(map[pagestore.PageID]bool, len(dataPages))
	var fragments [][]pagestore.PageID
	for _, s := range starts {
		var frag []pagestore.PageID
		for cur := s; !seen[cur]; {
			seen[cur] = true
			frag = append(frag, cur)
			n := dataPages[cur].Next
			if n == pagestore.InvalidPage || !recip(cur, n) {
				break
			}
			cur = n
		}
		fragments = append(fragments, frag)
	}
	var cycles []pagestore.PageID
	for id := range dataPages {
		if !seen[id] {
			cycles = append(cycles, id)
		}
	}
	sort.Slice(cycles, func(a, b int) bool { return cycles[a] < cycles[b] })
	return fragments, cycles
}

// resolveStored expands a stored payload, walking overflow chains against
// the raw page map. Chains touching bad or missing pages fail; consumed
// pages are marked so leftovers can be reported as orphans.
func resolveStored(stored []byte, ovfl map[pagestore.PageID]ovflPage, bad map[pagestore.PageID]PageFault, consumed map[pagestore.PageID]bool, pageSize int) ([]byte, error) {
	ref, err := pagestore.DecodeStored(stored)
	if err != nil {
		return nil, err
	}
	if ref.Inline {
		return append([]byte(nil), ref.Data...), nil
	}
	chunk := pagestore.OverflowChunk(pageSize)
	maxPages := ref.Total/chunk + 2
	out := make([]byte, 0, ref.Total)
	walked := make([]pagestore.PageID, 0, maxPages)
	next := ref.First
	for next != pagestore.InvalidPage {
		if len(walked) >= maxPages {
			return nil, fmt.Errorf("overflow chain cycle at page %d", next)
		}
		if f, isBad := bad[next]; isBad {
			return nil, fmt.Errorf("overflow page %d is quarantined (%s)", next, f.Kind)
		}
		op, ok := ovfl[next]
		if !ok {
			return nil, fmt.Errorf("overflow page %d missing or not an overflow page", next)
		}
		walked = append(walked, next)
		out = append(out, op.data...)
		next = op.next
	}
	if len(out) != ref.Total {
		return nil, fmt.Errorf("overflow chain holds %d bytes, stub says %d", len(out), ref.Total)
	}
	for _, id := range walked {
		consumed[id] = true
	}
	return out, nil
}

// minKey returns the smallest covered key among recs (MaxUint64 if none).
func minKey(recs []SalvagedRecord) uint64 {
	min := ^uint64(0)
	for _, r := range recs {
		if r.Meta.Span > 0 && r.Meta.Key < min {
			min = r.Meta.Key
		}
	}
	return min
}

// coverage is a set of disjoint inclusive intervals, kept sorted.
type coverage struct {
	ivs []Interval
}

func (c *coverage) overlaps(start, end uint64) bool {
	i := sort.Search(len(c.ivs), func(i int) bool { return c.ivs[i].End >= start })
	return i < len(c.ivs) && c.ivs[i].Start <= end
}

func (c *coverage) add(start, end uint64) {
	i := sort.Search(len(c.ivs), func(i int) bool { return c.ivs[i].Start > start })
	c.ivs = append(c.ivs, Interval{})
	copy(c.ivs[i+1:], c.ivs[i:])
	c.ivs[i] = Interval{Start: start, End: end}
}

// gaps returns the sub-intervals of [lo, hi] covered by no interval.
func (c *coverage) gaps(lo, hi uint64) []Interval {
	if hi < lo {
		return nil
	}
	var out []Interval
	cur := lo
	for _, iv := range c.ivs {
		if iv.End < cur {
			continue
		}
		if iv.Start > hi {
			break
		}
		if iv.Start > cur {
			out = append(out, Interval{Start: cur, End: iv.Start - 1})
		}
		if iv.End+1 > cur {
			cur = iv.End + 1
		}
		if cur > hi {
			return out
		}
	}
	if cur <= hi {
		out = append(out, Interval{Start: cur, End: hi})
	}
	return out
}

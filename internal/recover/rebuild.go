package recover

import (
	"fmt"
	"sort"

	"repro/internal/pagestore"
)

// recordingPager tracks pages allocated through it, so Rebuild can tell the
// new generation apart from the wreckage of the old one.
type recordingPager struct {
	pagestore.Pager
	allocated map[pagestore.PageID]bool
}

func (rp *recordingPager) Allocate() (pagestore.PageID, error) {
	id, err := rp.Pager.Allocate()
	if err == nil {
		rp.allocated[id] = true
	}
	return id, err
}

// rebuildPoolFrames sizes the scratch buffer pool used while writing the
// new generation.
const rebuildPoolFrames = 128

// Rebuild writes res's salvaged records as a fresh record-store generation
// side by side with the damaged one — behind the codec's side record, with
// the codec's meta blob — then switches the store over by
// copying the new meta image onto metaPage and zeroing every page of the
// old generation (a zero page carries a zero CRC trailer, which verifies
// clean). When p commits through a WAL (anything implementing Commit()
// error), the entire rebuild — new pages, meta switch, zeroing — is one
// atomic batch: a crash leaves the store fully repaired or untouched.
//
// "Untouched" covers plain errors too, not just crashes: if the rebuild
// fails before its batch reaches the log, the half-built generation is
// dropped from the journal's pending set before returning, so a later
// Commit or Close cannot durably write half a rebuild. (A commit that fails
// after the log write leaves the whole batch staged; if a later fsync lands
// it, the store is fully repaired — still never half. Pages allocated for
// an abandoned generation may remain as zero extents — harmless: a zero
// page verifies clean and anchors nothing.)
func Rebuild(p pagestore.Pager, metaPage pagestore.PageID, res *Result, codec Codec) error {
	if err := rebuild(p, metaPage, res, codec); err != nil {
		if d, ok := p.(interface{ DiscardPending() }); ok {
			d.DiscardPending()
		}
		return err
	}
	return nil
}

func rebuild(p pagestore.Pager, metaPage pagestore.PageID, res *Result, codec Codec) error {
	rp := &recordingPager{Pager: p, allocated: make(map[pagestore.PageID]bool)}
	pool := pagestore.NewBufferPool(rp, rebuildPoolFrames)
	rs, err := pagestore.CreateRecordStore(pool)
	if err != nil {
		return fmt.Errorf("recover: rebuild: %w", err)
	}
	if side := codec.SideRecord(); side != nil {
		if _, _, err := rs.InsertLast(side); err != nil {
			return fmt.Errorf("recover: rebuild: insert side record: %w", err)
		}
	}
	for _, rec := range res.records {
		if _, _, err := rs.InsertLast(rec.Payload); err != nil {
			return fmt.Errorf("recover: rebuild: insert record %d: %w", rec.Meta.ID, err)
		}
	}
	if err := rs.SetUserMeta(codec.EncodeAlloc(res.NextKey, res.NextID)); err != nil {
		return fmt.Errorf("recover: rebuild: %w", err)
	}
	if err := pool.FlushAll(); err != nil {
		return fmt.Errorf("recover: rebuild: flush: %w", err)
	}

	// Switch over: the new generation's meta image becomes the store's
	// meta page. The new chain never links to its meta page, so the copy
	// is self-contained.
	newMeta := rs.MetaPage()
	if newMeta == metaPage {
		return fmt.Errorf("recover: rebuild: new generation landed on the live meta page %d", metaPage)
	}
	img := make([]byte, p.PageSize())
	if err := p.ReadPage(newMeta, img); err != nil {
		return fmt.Errorf("recover: rebuild: read new meta: %w", err)
	}
	if err := p.WritePage(metaPage, img); err != nil {
		return fmt.Errorf("recover: rebuild: switch meta: %w", err)
	}

	// Zero the old generation: every page seen by the scan that is not
	// part of the new one, plus the new generation's own (now duplicated)
	// meta page. Sorted for a deterministic write order.
	var zero []pagestore.PageID
	for _, id := range res.allocPages {
		if id == metaPage || rp.allocated[id] {
			continue
		}
		zero = append(zero, id)
	}
	zero = append(zero, newMeta)
	sort.Slice(zero, func(a, b int) bool { return zero[a] < zero[b] })
	blank := make([]byte, p.PageSize())
	for _, id := range zero {
		if err := p.WritePage(id, blank); err != nil {
			return fmt.Errorf("recover: rebuild: zero page %d: %w", id, err)
		}
	}

	if c, ok := p.(interface{ Commit() error }); ok {
		if err := c.Commit(); err != nil {
			return fmt.Errorf("recover: rebuild: commit: %w", err)
		}
	}
	// Hand the zeroed pages back to the allocator. Best-effort: the free
	// list is in-memory state, and the rebuild is already durable.
	for _, id := range zero {
		_ = p.Free(id)
	}
	return nil
}

package core

import (
	"encoding/binary"

	"repro/internal/diskbtree"
	"repro/internal/pagestore"
	"repro/internal/token"
)

// The full index — the baseline the paper argues against (Section 4.1).
//
// One entry per node, eagerly maintained, stored in a paged B+tree that
// shares the buffer pool with the XML data itself. This is deliberately the
// cost model the paper attributes to full indexing: every insert dirties
// index pages, every split rebases a batch of entries, the index competes
// with data for cache space, and "the vast majority of the entries will not
// even be used". The coarse range index, thousands of times smaller, stays
// in memory — that asymmetry is the paper's point.

type fullEntry struct {
	rng     RangeID
	byteOff int32 // byte offset of the node's begin token within the range
	tokIdx  int32 // token index of the begin token within the range
}

const fullEntrySize = 12

func encodeFullEntry(e fullEntry) []byte {
	out := make([]byte, fullEntrySize)
	binary.LittleEndian.PutUint32(out[0:], uint32(e.rng))
	binary.LittleEndian.PutUint32(out[4:], uint32(e.byteOff))
	binary.LittleEndian.PutUint32(out[8:], uint32(e.tokIdx))
	return out
}

func decodeFullEntry(b []byte) fullEntry {
	return fullEntry{
		rng:     RangeID(binary.LittleEndian.Uint32(b[0:])),
		byteOff: int32(binary.LittleEndian.Uint32(b[4:])),
		tokIdx:  int32(binary.LittleEndian.Uint32(b[8:])),
	}
}

type fullIndex struct {
	t *diskbtree.Tree
}

func newFullIndex(pool *pagestore.BufferPool) (*fullIndex, error) {
	t, err := diskbtree.New(pool, fullEntrySize)
	if err != nil {
		return nil, err
	}
	return &fullIndex{t: t}, nil
}

func (fx *fullIndex) len() int { return fx.t.Len() }

func (fx *fullIndex) get(id NodeID) (fullEntry, bool, error) {
	v, ok, err := fx.t.Get(uint64(id))
	if err != nil || !ok {
		return fullEntry{}, false, err
	}
	return decodeFullEntry(v), true, nil
}

func (fx *fullIndex) set(id NodeID, e fullEntry) error {
	return fx.t.Set(uint64(id), encodeFullEntry(e))
}

// addFragment indexes every node of a freshly inserted range by scanning its
// encoded tokens once.
func (fx *fullIndex) addFragment(ri *rangeInfo, tokenBytes []byte) error {
	return indexNodes(ri, tokenBytes, func(id NodeID, e fullEntry) error {
		return fx.set(id, e)
	})
}

// rebase rewrites the entries of nodes [start, start+n-1] after they moved
// from the head of a split range into the tail: the range changes and the
// offsets shift left by the head's size.
func (fx *fullIndex) rebase(start NodeID, n int, newRange RangeID, byteDelta, tokDelta int32) error {
	if n <= 0 {
		return nil
	}
	type upd struct {
		id NodeID
		e  fullEntry
	}
	var ups []upd
	err := fx.t.Ascend(uint64(start), uint64(start)+uint64(n)-1, func(k uint64, v []byte) bool {
		e := decodeFullEntry(v)
		e.rng = newRange
		e.byteOff -= byteDelta
		e.tokIdx -= tokDelta
		ups = append(ups, upd{NodeID(k), e})
		return true
	})
	if err != nil {
		return err
	}
	for _, u := range ups {
		if err := fx.set(u.id, u.e); err != nil {
			return err
		}
	}
	return nil
}

// removeInterval deletes the entries of nodes [start, start+n-1].
func (fx *fullIndex) removeInterval(start NodeID, n int) error {
	if n <= 0 {
		return nil
	}
	var keys []uint64
	err := fx.t.Ascend(uint64(start), uint64(start)+uint64(n)-1, func(k uint64, _ []byte) bool {
		keys = append(keys, k)
		return true
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := fx.t.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// indexNodes walks encoded tokens assigning ids from ri.start and invokes fn
// for each node-starting token.
func indexNodes(ri *rangeInfo, tokenBytes []byte, fn func(NodeID, fullEntry) error) error {
	r := token.NewReader(tokenBytes) // Skip reads sizes and kinds, never names
	cur := ri.start
	tokIdx := 0
	for r.More() {
		off := r.Offset()
		k, err := r.Skip()
		if err != nil {
			return err
		}
		if k.StartsNode() {
			if err := fn(cur, fullEntry{rng: ri.id, byteOff: int32(off), tokIdx: int32(tokIdx)}); err != nil {
				return err
			}
			cur++
		}
		tokIdx++
	}
	return nil
}

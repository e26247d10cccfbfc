package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pagestore"
	"repro/internal/token"
)

// Range record layout inside the page store.
//
// Each range is one record:
//
//	rangeID   uint32
//	startID   uint64
//	nodes     uint32
//	tokens    uint32
//	tokenBytes...
//
// Node identifiers are not stored with tokens; startID plus the ID factory
// replay over tokenBytes regenerates them. The header makes records
// self-describing, so the full set of indexes can be rebuilt by a single
// sequential scan (crash recovery / reopen).
const rangeHeaderSize = 4 + 8 + 4 + 4

// encodeRangeRecord fills in the header of rec, a range record whose token
// bytes are already in place behind rangeHeaderSize bytes of room, and
// returns it.
func encodeRangeRecord(rec []byte, id RangeID, start NodeID, nodes, toks int) []byte {
	binary.LittleEndian.PutUint32(rec[0:], uint32(id))
	binary.LittleEndian.PutUint64(rec[4:], uint64(start))
	binary.LittleEndian.PutUint32(rec[12:], uint32(nodes))
	binary.LittleEndian.PutUint32(rec[16:], uint32(toks))
	return rec
}

// appendRecordRoom appends room for a range header to dst: the start of a
// record encodeRangeRecord finishes once its token bytes follow.
func appendRecordRoom(dst []byte) []byte {
	return append(dst, make([]byte, rangeHeaderSize)...)
}

// decodeRangeHeader splits a record payload into its header fields and the
// token bytes (aliasing payload).
func decodeRangeHeader(payload []byte) (id RangeID, start NodeID, nodes, toks int, tokenBytes []byte, err error) {
	if len(payload) < rangeHeaderSize {
		return 0, 0, 0, 0, nil, fmt.Errorf("core: truncated range record (%d bytes)", len(payload))
	}
	id = RangeID(binary.LittleEndian.Uint32(payload[0:]))
	start = NodeID(binary.LittleEndian.Uint64(payload[4:]))
	nodes = int(binary.LittleEndian.Uint32(payload[12:]))
	toks = int(binary.LittleEndian.Uint32(payload[16:]))
	tokenBytes = payload[rangeHeaderSize:]
	return id, start, nodes, toks, tokenBytes, nil
}

// countNodesInPrefix returns how many node-starting tokens occur in the
// first `limit` bytes of encoded tokens, along with the token count. It
// steps with token.Size and reads kind bytes only, so it needs no name
// dictionary: salvage checks records with it before it has one.
func countNodesInPrefix(tokenBytes []byte, limit int) (nodes, toks int, err error) {
	for b := tokenBytes[:limit]; len(b) > 0; toks++ {
		n, err := token.Size(b)
		if err != nil {
			return 0, 0, err
		}
		if token.KindOf(b[0]).StartsNode() {
			nodes++
		}
		b = b[n:]
	}
	return nodes, toks, nil
}

// The meta page's user blob: the id allocators' high-water marks, then the
// name dictionary's table (token.Dict.AppendTable) to the end of the blob.
// A store written before names had ids has the 12 allocator bytes only.
//
//	nextID     uint64
//	nextRange  uint32
//	names      ...
const allocStateSize = 8 + 4

func appendAllocState(dst []byte, nextID NodeID, nextRange RangeID) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nextID))
	return binary.LittleEndian.AppendUint32(dst, uint32(nextRange))
}

// decodeAllocState splits the meta blob; names aliases user.
func decodeAllocState(user []byte) (nextID NodeID, nextRange RangeID, names []byte, ok bool) {
	if len(user) < allocStateSize {
		return 0, 0, nil, false
	}
	nextID = NodeID(binary.LittleEndian.Uint64(user[0:]))
	nextRange = RangeID(binary.LittleEndian.Uint32(user[8:]))
	return nextID, nextRange, user[allocStateSize:], true
}

// The name dictionary's second copy is a record in the data chain, ahead of
// every range, so that salvage finds the names without the meta page: a range
// header with range id 0 (range ids start at 1) and zero counts, then the
// same table as the meta blob.
const dictRecordID RangeID = 0

func encodeDictRecord(table []byte) []byte {
	return append(make([]byte, rangeHeaderSize, rangeHeaderSize+len(table)), table...)
}

// dictLimit is the most table bytes the meta page has room for beside the
// allocator marks; a name past it stays inline.
func dictLimit(recs *pagestore.RecordStore) int {
	return recs.MaxUserMeta() - allocStateSize
}

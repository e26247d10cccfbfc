package pagestore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// RecordStore maintains an ordered sequence of variable-length records on a
// doubly-chained list of slotted pages. The store's Ranges are records; the
// page chain order is document order. Records have stable addresses (page,
// slot) that change only on page splits; every split reports the relocations
// so the caller can repair its indexes.
//
// Records larger than a page are transparently spilled to overflow chains; a
// small stub remains in the slotted page so ordering and addressing are
// uniform.

// Loc addresses a record.
type Loc struct {
	Page PageID
	Slot uint16
}

// NilLoc is the zero, invalid location.
var NilLoc = Loc{}

// IsNil reports whether the location is unset.
func (l Loc) IsNil() bool { return l.Page == InvalidPage }

func (l Loc) String() string { return fmt.Sprintf("(%d.%d)", l.Page, l.Slot) }

// Move records a relocation of a record during a page split.
type Move struct {
	From, To Loc
}

// Record store errors.
var (
	ErrNoRecord  = errors.New("pagestore: no record at location")
	ErrTooLarge  = errors.New("pagestore: record exceeds maximum size")
	ErrBadMeta   = errors.New("pagestore: malformed meta page")
	ErrBadHandle = errors.New("pagestore: operation on empty store")
)

// Payload stubs: first byte distinguishes inline from overflowed records.
const (
	recInline   = 0
	recOverflow = 1
	stubSize    = 1 + 4 + 4 // flag + total length + first overflow page
)

// Overflow page header: type, flags, used(2), next(4).
const ovflHeader = 8

// MaxRecordSize bounds a record's total payload.
const MaxRecordSize = 1 << 30

// RecordStore is not safe for concurrent use; the owning store serializes
// access.
type RecordStore struct {
	pool  *BufferPool
	meta  PageID // meta page id
	head  PageID // first data page
	tail  PageID // last data page
	stats PlaceStats
	// stored is the buffer encode lays an inline record or a stub out in.
	// Every caller copies what encode returns into a page before it asks
	// for another, so one buffer serves every write.
	stored []byte
}

// PlaceStats counts how inserts that found their page full were placed,
// since the store was opened.
type PlaceStats struct {
	Splits uint64 // data pages cut to take a page's tail or a new record
	Shifts uint64 // tails handed to the next page instead
	Moves  uint64 // records relocated by either
}

// PlaceStats returns the placement counters.
func (rs *RecordStore) PlaceStats() PlaceStats { return rs.stats }

// CreateRecordStore formats a new store on the pool: a meta page plus one
// empty data page.
func CreateRecordStore(pool *BufferPool) (*RecordStore, error) {
	mf, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(mf, true)
	df, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(df, true)
	initDataPage(df.Data)

	rs := &RecordStore{pool: pool, meta: mf.ID, head: df.ID, tail: df.ID}
	rs.writeMeta(mf.Data, nil)
	return rs, nil
}

// OpenRecordStore reopens a store whose meta page id is known (by
// convention, the first allocated page).
func OpenRecordStore(pool *BufferPool, meta PageID) (*RecordStore, error) {
	mf, err := pool.Fetch(meta)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(mf, false)
	p := slotPage(mf.Data)
	if p.typ() != pageMeta {
		return nil, ErrBadMeta
	}
	rs := &RecordStore{
		pool: pool,
		meta: meta,
		head: PageID(binary.LittleEndian.Uint32(mf.Data[2:])),
		tail: PageID(binary.LittleEndian.Uint32(mf.Data[6:])),
	}
	return rs, nil
}

// MetaPage returns the meta page id (persist it to reopen the store).
func (rs *RecordStore) MetaPage() PageID { return rs.meta }

// Pool returns the underlying buffer pool.
func (rs *RecordStore) Pool() *BufferPool { return rs.pool }

// writeMeta lays out the meta page: type byte, flags, head, tail, user blob.
func (rs *RecordStore) writeMeta(b []byte, user []byte) {
	b[0] = pageMeta
	b[1] = 0
	binary.LittleEndian.PutUint32(b[2:], uint32(rs.head))
	binary.LittleEndian.PutUint32(b[6:], uint32(rs.tail))
	binary.LittleEndian.PutUint16(b[10:], uint16(len(user)))
	copy(b[metaHeader:], user)
}

func (rs *RecordStore) syncMeta() error {
	mf, err := rs.pool.Fetch(rs.meta)
	if err != nil {
		return err
	}
	defer rs.pool.Unpin(mf, true)
	// Preserve the user blob.
	ul := binary.LittleEndian.Uint16(mf.Data[10:])
	user := make([]byte, ul)
	copy(user, mf.Data[metaHeader:metaHeader+int(ul)])
	rs.writeMeta(mf.Data, user)
	return nil
}

// metaHeader is the meta page's bytes ahead of the user blob: type, flags,
// head, tail and the blob's length.
const metaHeader = 12

// MaxUserMeta returns the largest blob SetUserMeta accepts: what the page
// holds after the header, and no more than its uint16 length field counts.
func (rs *RecordStore) MaxUserMeta() int {
	return min(rs.pool.UsablePageSize()-metaHeader, math.MaxUint16)
}

// SetUserMeta stores an application blob (up to MaxUserMeta bytes) in the
// meta page. The core store persists its ID allocator state and its name
// dictionary here.
func (rs *RecordStore) SetUserMeta(user []byte) error {
	if len(user) > rs.MaxUserMeta() {
		return ErrTooLarge
	}
	mf, err := rs.pool.Fetch(rs.meta)
	if err != nil {
		return err
	}
	defer rs.pool.Unpin(mf, true)
	rs.writeMeta(mf.Data, user)
	return nil
}

// UserMeta returns the application blob from the meta page.
func (rs *RecordStore) UserMeta() ([]byte, error) {
	mf, err := rs.pool.Fetch(rs.meta)
	if err != nil {
		return nil, err
	}
	defer rs.pool.Unpin(mf, false)
	ul := int(binary.LittleEndian.Uint16(mf.Data[10:]))
	out := make([]byte, ul)
	copy(out, mf.Data[metaHeader:metaHeader+ul])
	return out, nil
}

// inlineMax is the largest payload stored directly in a data page.
func (rs *RecordStore) inlineMax() int {
	return rs.pool.UsablePageSize() - headerSize - slotSize
}

// Read returns a copy of the record payload at loc.
func (rs *RecordStore) Read(loc Loc) ([]byte, error) {
	return rs.readSlice(context.Background(), loc, 0, -1, nil, nil)
}

// ChunkSize is the payload bytes one overflow page holds: page i of a spilled
// record's chain holds payload bytes [i*ChunkSize, (i+1)*ChunkSize), and an
// inline record is shorter than one chunk. It is the natural window for a
// reader that wants the pages it uses and no others.
func (rs *RecordStore) ChunkSize() int { return rs.pool.UsablePageSize() - ovflHeader }

// Chain is the page directory of one spilled record, learned as reads walk
// its overflow chain: a reader that hands the same Chain to every ReadSlice
// of the record jumps to the page holding an offset instead of hopping there
// from the head. It is a cache: nothing is persisted, an entry not learned
// yet costs the hops it always did, and a Chain that disagrees with the
// record's stub (page count, first page) is ignored. The owner drops it when
// the record is rewritten or deleted — page ids are reused, so a stale Chain
// whose first page happens to match would misdirect reads. Safe for
// concurrent readers: entries are written atomically and every writer of an
// entry writes the same value.
type Chain struct {
	pages []atomic.Uint32 // InvalidPage = not learned
}

// NewChain returns an empty directory for a record of total payload bytes.
func (rs *RecordStore) NewChain(total int) *Chain {
	chunk := rs.ChunkSize()
	return &Chain{pages: make([]atomic.Uint32, (total+chunk-1)/chunk)}
}

// Pages is the number of overflow pages the directory covers.
func (c *Chain) Pages() int { return len(c.pages) }

// covers reports whether the directory describes a chain of n pages headed by
// first, adopting first when it has learned nothing yet.
func (c *Chain) covers(n int, first PageID) bool {
	if c == nil || n == 0 || len(c.pages) != n {
		return false
	}
	return c.pages[0].CompareAndSwap(0, uint32(first)) || PageID(c.pages[0].Load()) == first
}

// ReadSlice appends payload[off : off+length] of the record at loc to dst and
// returns the extended slice, without materializing the rest of the record —
// the cheap path for point reads into large records. chain may be nil. ctx is
// checked between overflow pages; cancellation never returns a partial slice.
func (rs *RecordStore) ReadSlice(ctx context.Context, loc Loc, off, length int, dst []byte, chain *Chain) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("pagestore: negative slice bounds")
	}
	return rs.readSlice(ctx, loc, off, length, dst, chain)
}

// readSlice is ReadSlice, with length < 0 meaning "to the end of the record".
func (rs *RecordStore) readSlice(ctx context.Context, loc Loc, off, length int, dst []byte, chain *Chain) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := dst
	var total int
	page := InvalidPage
	err := rs.pool.View(loc.Page, func(data []byte) error {
		p := slotPage(data)
		if p.typ() != pageData || !p.live(loc.Slot) {
			return fmt.Errorf("%w: %v", ErrNoRecord, loc)
		}
		stored := p.payload(loc.Slot)
		if len(stored) == 0 {
			return fmt.Errorf("pagestore: empty stored payload")
		}
		if stored[0] == recInline {
			body := stored[1:]
			if length < 0 {
				length = len(body) - off
			}
			if length < 0 || off+length > len(body) {
				return fmt.Errorf("pagestore: slice [%d:%d] beyond record of %d bytes", off, off+length, len(body))
			}
			out = append(out, body[off:off+length]...)
			return nil
		}
		if len(stored) < stubSize {
			return fmt.Errorf("pagestore: truncated overflow stub")
		}
		total = int(binary.LittleEndian.Uint32(stored[1:]))
		page = PageID(binary.LittleEndian.Uint32(stored[5:]))
		return nil
	})
	if err != nil || page == InvalidPage {
		return out, err
	}
	if length < 0 {
		length = total - off
	}
	if length < 0 || off+length > total {
		return nil, fmt.Errorf("pagestore: slice [%d:%d] beyond record of %d bytes", off, off+length, total)
	}
	// Spilled record. Every page but the last is full, so the page holding
	// off is number off/chunk: start at the nearest one the directory knows at
	// or before it (the head when it knows none) and walk, teaching the
	// directory each page passed.
	chunk := rs.ChunkSize()
	i := 0
	if chain.covers((total+chunk-1)/chunk, page) {
		for j := min(off/chunk, len(chain.pages)-1); j > 0; j-- {
			if p := PageID(chain.pages[j].Load()); p != InvalidPage {
				i, page = j, p
				break
			}
		}
	} else {
		chain = nil
	}
	end := off + length
	for pos := i * chunk; pos < end; i, pos = i+1, pos+chunk {
		if page == InvalidPage {
			return nil, fmt.Errorf("pagestore: overflow chain ended early (%d of %d bytes)", pos, total)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := rs.pool.View(page, func(data []byte) error {
			used := int(binary.LittleEndian.Uint16(data[2:]))
			if data[0] != pageOverflow || used != min(chunk, total-pos) {
				return fmt.Errorf("pagestore: page %d is not chunk %d of the %d-byte record at %v", page, i, total, loc)
			}
			if pos+used > off {
				out = append(out, data[ovflHeader+max(off-pos, 0):ovflHeader+min(used, end-pos)]...)
			}
			page = PageID(binary.LittleEndian.Uint32(data[4:]))
			return nil
		})
		if err != nil {
			return nil, err
		}
		if chain != nil && i+1 < len(chain.pages) {
			chain.pages[i+1].Store(uint32(page))
		}
	}
	return out, nil
}

// resolve expands a stored payload, following overflow chains.
func (rs *RecordStore) resolve(stored []byte) ([]byte, error) {
	if len(stored) == 0 {
		return nil, fmt.Errorf("pagestore: empty stored payload")
	}
	if stored[0] == recInline {
		out := make([]byte, len(stored)-1)
		copy(out, stored[1:])
		return out, nil
	}
	if len(stored) < stubSize {
		return nil, fmt.Errorf("pagestore: truncated overflow stub")
	}
	total := int(binary.LittleEndian.Uint32(stored[1:]))
	next := PageID(binary.LittleEndian.Uint32(stored[5:]))
	out := make([]byte, 0, total)
	for next != InvalidPage {
		f, err := rs.pool.Fetch(next)
		if err != nil {
			return nil, err
		}
		used := int(binary.LittleEndian.Uint16(f.Data[2:]))
		out = append(out, f.Data[ovflHeader:ovflHeader+used]...)
		next = PageID(binary.LittleEndian.Uint32(f.Data[4:]))
		rs.pool.Unpin(f, false)
	}
	if len(out) != total {
		return nil, fmt.Errorf("pagestore: overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

// encode prepares the stored form of data, spilling to overflow if needed.
func (rs *RecordStore) encode(data []byte) ([]byte, error) {
	if len(data) > MaxRecordSize {
		return nil, ErrTooLarge
	}
	if len(data)+1 <= rs.inlineMax() {
		rs.stored = append(append(rs.stored[:0], recInline), data...)
		return rs.stored, nil
	}
	first, err := rs.writeOverflow(data)
	if err != nil {
		return nil, err
	}
	stub := append(rs.stored[:0], make([]byte, stubSize)...)
	stub[0] = recOverflow
	binary.LittleEndian.PutUint32(stub[1:], uint32(len(data)))
	binary.LittleEndian.PutUint32(stub[5:], uint32(first))
	rs.stored = stub
	return stub, nil
}

func (rs *RecordStore) writeOverflow(data []byte) (PageID, error) {
	chunk := rs.pool.UsablePageSize() - ovflHeader
	var first, prev PageID
	var prevFrame *Frame
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		f, err := rs.pool.NewPage()
		if err != nil {
			return InvalidPage, err
		}
		f.Data[0] = pageOverflow
		f.Data[1] = 0
		binary.LittleEndian.PutUint16(f.Data[2:], uint16(end-off))
		binary.LittleEndian.PutUint32(f.Data[4:], 0)
		copy(f.Data[ovflHeader:], data[off:end])
		if prev == InvalidPage {
			first = f.ID
		} else {
			binary.LittleEndian.PutUint32(prevFrame.Data[4:], uint32(f.ID))
			rs.pool.Unpin(prevFrame, true)
		}
		prev, prevFrame = f.ID, f
	}
	if prevFrame != nil {
		rs.pool.Unpin(prevFrame, true)
	}
	return first, nil
}

// freeOverflow releases an overflow chain referenced by a stored payload.
func (rs *RecordStore) freeOverflow(stored []byte) error {
	if len(stored) == 0 || stored[0] != recOverflow {
		return nil
	}
	next := PageID(binary.LittleEndian.Uint32(stored[5:]))
	for next != InvalidPage {
		f, err := rs.pool.Fetch(next)
		if err != nil {
			return err
		}
		nn := PageID(binary.LittleEndian.Uint32(f.Data[4:]))
		if err := rs.pool.FreePage(f); err != nil {
			return err
		}
		next = nn
	}
	return nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/token"
	"repro/internal/xmltok"
)

// rangeCursor is how every operation reads range bytes: a window over one
// range's record that fills forward on demand, one overflow page at a time,
// starting at the byte the caller names — a replay checkpoint, a Partial
// Index position, the range head. A lookup that needs 134 tokens of a
// 9 000-token range copies the page they sit in, not the range; a scan that
// needs every token gets them a page at a time from the same code. Mutations
// (split, coalesce) ask for everything (all) and still come through here, so
// there is one way to read a range.
//
// The window holds record bytes [base, base+len(buf)): the range header sits
// at record offsets [0, rangeHeaderSize) and the token at token offset off at
// record offset rangeHeaderSize+off. A window that starts at the head takes
// the header with it and checks that the record is the range it should be.
//
// A cursor belongs to one operation and one goroutine, under the store lock.
// It holds one window: asking for a position outside it (another range, a
// byte before it, a byte past what is loaded) drops the window and starts a
// new one there, so callers may move between ranges freely but should move
// forward. Bytes returned by token and all alias the window and are valid
// until the next call on the cursor. Cursors are pooled with their buffers:
// an operation allocates only what it returns.
type rangeCursor struct {
	s   *Store
	ctx context.Context
	// dl is the OpTimeout context of the operation that holds the cursor,
	// when it has one (beginOp); ctx is then &dl.
	dl deadlineCtx

	ri   *rangeInfo
	ver  uint32 // ri.version the window was read under
	base int
	buf  []byte
	// hint is the record offset a caller that knows where it will stop has
	// named (expect): fills read to exactly there instead of to the page end.
	hint int
	// memo is ri's checkpoint-table entry once asked for (learned).
	memo  rangeCheckpoints
	asked bool

	copied uint64 // bytes copied out of the pool; Stats.RangeBytesRead at close

	// What rendering a node reuses (AppendNodeXML): the writer's state and,
	// for callers that want a string, the bytes it is built from.
	xml xmltok.Appender
	out []byte
}

// cursorRetainBytes caps the capacity a pooled cursor keeps; an outlier
// range does not pin its footprint in the pool forever.
const cursorRetainBytes = 1 << 20

var cursorPool = sync.Pool{New: func() any { return new(rangeCursor) }}

// cursor returns a pooled cursor reading under ctx, which is observed at
// every page fetch. Close it when the operation ends.
func (s *Store) cursor(ctx context.Context) *rangeCursor {
	c := cursorPool.Get().(*rangeCursor)
	c.s, c.ctx = s, ctx
	return c
}

func (c *rangeCursor) close() {
	c.s.rangeBytesRead.Add(c.copied)
	if c.dl.Context != nil && c.dl.armed() {
		return // a timer may yet end c.dl: let the cursor go
	}
	buf, out := c.buf[:0], c.out[:0]
	if cap(buf) > cursorRetainBytes {
		buf = nil
	}
	if cap(out) > cursorRetainBytes {
		out = nil
	}
	*c = rangeCursor{buf: buf, out: out, xml: c.xml}
	cursorPool.Put(c)
}

// enter makes ri the cursor's range, dropping the window over any other.
func (c *rangeCursor) enter(ri *rangeInfo) {
	if ri != c.ri || ri.version != c.ver {
		c.ri, c.ver = ri, ri.version
		c.base, c.buf, c.hint = 0, c.buf[:0], 0
		c.memo, c.asked = rangeCheckpoints{}, false
	}
}

// learned returns what the checkpoint table knows about ri: replay
// checkpoints for a locate, the chain directory for a fill. The table is
// asked once per range, and only by a reader it can help — one about to
// replay, or to read past a spilled range's first page.
func (c *rangeCursor) learned(ri *rangeInfo) rangeCheckpoints {
	c.enter(ri)
	if !c.asked {
		c.memo, c.asked = c.s.checkpoints.get(ri.id, ri.version), true
	}
	return c.memo
}

// seek points the window at token offset off of ri, keeping what is loaded
// when off lies inside it or right behind it. A window that starts at the
// head starts at the record's first byte: the header is read, and checked.
func (c *rangeCursor) seek(ri *rangeInfo, off int) {
	c.enter(ri)
	rec := rangeHeaderSize + off
	start := rec
	if off == 0 {
		start = 0
	}
	if rec >= c.base && rec <= c.base+len(c.buf) && (len(c.buf) > 0 || c.base == start) {
		return
	}
	c.base, c.buf, c.hint = start, c.buf[:0], 0
}

// expect is seek for a reader that knows it will stop at token offset end
// (a subtree whose end the Partial Index holds, a prefix, the whole range):
// the bytes up to end arrive in one read and none beyond it.
func (c *rangeCursor) expect(ri *rangeInfo, off, end int) {
	c.seek(ri, off)
	c.hint = rangeHeaderSize + end
}

// tokens returns the loaded bytes of ri from token offset off on, which begin
// with at least one whole token — its size is n — reading what is missing.
// A loop steps through the rest with token.Size and comes back with the
// offset of the first token Size could not finish: the window may end inside
// one. This is the scans' inner loop, so the common case (the window has it)
// is a few compares and the one Size call the loop needs anyway.
func (c *rangeCursor) tokens(ri *rangeInfo, off int) (win []byte, n int, err error) {
	if i := rangeHeaderSize + off - c.base; ri == c.ri && ri.version == c.ver && uint(i) < uint(len(c.buf)) {
		if n, err := token.Size(c.buf[i:]); err == nil {
			return c.buf[i:], n, nil
		}
	}
	return c.load(ri, off)
}

func (c *rangeCursor) load(ri *rangeInfo, off int) ([]byte, int, error) {
	c.seek(ri, off)
	if off < 0 || off >= ri.bytes {
		return nil, 0, fmt.Errorf("core: token offset %d outside %v (%d bytes)", off, ri, ri.bytes)
	}
	rec := rangeHeaderSize + off
	for {
		if i := rec - c.base; i < len(c.buf) {
			n, err := token.Size(c.buf[i:])
			if err == nil {
				return c.buf[i:], n, nil
			}
			// A token cut off by the window's end reads as a short buffer;
			// at the range's end it is one.
			if !errors.Is(err, token.ErrShortBuffer) || c.base+len(c.buf) >= rangeHeaderSize+ri.bytes {
				return nil, 0, err
			}
		}
		if err := c.fill(rec); err != nil {
			return nil, 0, err
		}
	}
}

// token returns the encoded bytes of the whole token at token offset off of
// ri.
func (c *rangeCursor) token(ri *rangeInfo, off int) ([]byte, error) {
	win, n, err := c.tokens(ri, off)
	return win[:n:n], err
}

// kind returns the kind of the token at pos.
func (c *rangeCursor) kind(pos tokenPos) (token.Kind, error) {
	raw, err := c.token(pos.ri, pos.byteOff)
	if err != nil {
		return token.Invalid, err
	}
	return token.KindOf(raw[0]), nil
}

// all returns every token byte of ri.
func (c *rangeCursor) all(ri *rangeInfo) ([]byte, error) {
	c.expect(ri, 0, ri.bytes)
	for c.base+len(c.buf) < rangeHeaderSize+ri.bytes {
		if err := c.fill(0); err != nil {
			return nil, err
		}
	}
	return c.buf[rangeHeaderSize-c.base:], nil
}

// fill extends the window by one read: to the hint when the caller gave one
// that lies ahead, otherwise to the end of the next page not loaded yet.
// rec is the record offset the caller is working at: bytes more than a page
// behind it are let go first, so a long forward scan holds two pages, not
// the range.
func (c *rangeCursor) fill(rec int) error {
	ri, chunk := c.ri, c.s.recs.ChunkSize()
	if drop := rec - c.base; drop >= chunk && drop <= len(c.buf) {
		c.buf = c.buf[:copy(c.buf, c.buf[drop:])]
		c.base += drop
	}
	lo := c.base + len(c.buf)
	hi := min((lo/chunk+1)*chunk, rangeHeaderSize+ri.bytes)
	if c.hint > lo {
		hi = min(c.hint, rangeHeaderSize+ri.bytes)
	}
	if hi <= lo {
		return fmt.Errorf("core: read past the end of %v", ri)
	}
	if lo >= chunk && c.learned(ri).chain == nil {
		// First read past the first page of a spilled range: start its chain
		// directory, which this and every later such read fill in as they
		// walk, and jump by.
		c.memo = c.s.checkpoints.publish(ri.id, ri.version, nil, c.s.recs.NewChain(rangeHeaderSize+ri.bytes))
	}
	buf, err := c.s.recs.ReadSlice(c.ctx, ri.loc, lo, hi-lo, c.buf, c.memo.chain)
	if err != nil {
		return err
	}
	c.buf = buf
	c.copied += uint64(hi - lo)
	if lo == 0 {
		if id, _, _, _, _, err := decodeRangeHeader(c.buf); err != nil {
			return err
		} else if id != ri.id {
			return fmt.Errorf("core: record at %v is range %d, expected %d", ri.loc, id, ri.id)
		}
	}
	return nil
}

package pagestore

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
)

var bg = context.Background()

func TestReadSliceInline(t *testing.T) {
	rs := newRecordStore(t, 1024, 8)
	data := []byte("0123456789abcdef")
	loc, _, err := rs.InsertLast(data)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, length int }{
		{0, 16}, {0, 0}, {5, 5}, {15, 1}, {16, 0},
	}
	for _, c := range cases {
		got, err := rs.ReadSlice(bg, loc, c.off, c.length, nil, nil)
		if err != nil {
			t.Fatalf("ReadSlice(%d,%d): %v", c.off, c.length, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.length]) {
			t.Errorf("ReadSlice(%d,%d) = %q", c.off, c.length, got)
		}
	}
	// Out of bounds.
	if _, err := rs.ReadSlice(bg, loc, 10, 10, nil, nil); err == nil {
		t.Error("over-read should fail")
	}
	if _, err := rs.ReadSlice(bg, loc, -1, 2, nil, nil); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := rs.ReadSlice(bg, loc, 0, -2, nil, nil); err == nil {
		t.Error("negative length should fail")
	}
	if _, err := rs.ReadSlice(bg, Loc{Page: 99, Slot: 0}, 0, 1, nil, nil); err == nil {
		t.Error("bad loc should fail")
	}
}

func TestReadSliceOverflow(t *testing.T) {
	rs := newRecordStore(t, 512, 32)
	// Spans ~8 overflow pages.
	data := make([]byte, 4000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	loc, _, err := rs.InsertLast(data)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, length int }{
		{0, 4000},    // whole record
		{0, 100},     // first chunk only
		{450, 200},   // crosses a chunk boundary
		{3900, 100},  // tail
		{1000, 2500}, // many chunks
		{3999, 1},
	}
	for _, c := range cases {
		got, err := rs.ReadSlice(bg, loc, c.off, c.length, nil, nil)
		if err != nil {
			t.Fatalf("ReadSlice(%d,%d): %v", c.off, c.length, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.length]) {
			t.Errorf("ReadSlice(%d,%d) mismatch", c.off, c.length)
		}
	}
	if _, err := rs.ReadSlice(bg, loc, 3999, 2, nil, nil); err == nil {
		t.Error("overflow over-read should fail")
	}
}

func TestReadSliceAgainstFullRead(t *testing.T) {
	// Property: every slice agrees with the full Read.
	rs := newRecordStore(t, 512, 32)
	sizes := []int{1, 100, 490, 491, 5000}
	for _, n := range sizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + n)
		}
		loc, _, err := rs.InsertLast(data)
		if err != nil {
			t.Fatal(err)
		}
		full, err := rs.Read(loc)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < n; off += 1 + n/7 {
			for _, l := range []int{0, 1, n / 3, n - off} {
				if l < 0 || off+l > n {
					continue
				}
				got, err := rs.ReadSlice(bg, loc, off, l, nil, nil)
				if err != nil {
					t.Fatalf("size %d ReadSlice(%d,%d): %v", n, off, l, err)
				}
				if !bytes.Equal(got, full[off:off+l]) {
					t.Fatalf("size %d slice (%d,%d) mismatch", n, off, l)
				}
			}
		}
	}
}

// TestReadSliceChain: a read through a chain directory returns what a walk
// from the head returns, whatever the directory has learned so far; it learns
// the pages it passes and then jumps (counted in pool page views); it appends
// to dst; and a directory that does not describe the record is not used.
func TestReadSliceChain(t *testing.T) {
	rs := newRecordStore(t, 512, 64)
	chunk := rs.ChunkSize()
	data := make([]byte, 20*chunk+77) // 21 pages, the last one short
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(data)
	loc, _, err := rs.InsertLast(data)
	if err != nil {
		t.Fatal(err)
	}
	views := func(fn func()) uint64 {
		before := rs.Pool().Stats()
		fn()
		after := rs.Pool().Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	chain := rs.NewChain(len(data))
	if chain.Pages() != 21 {
		t.Fatalf("directory covers %d pages, want 21", chain.Pages())
	}
	// Differential, on a directory that fills as it goes: offsets at, before
	// and after chunk boundaries, slices inside one page and across several.
	prefix := []byte("kept")
	for i := 0; i < 500; i++ {
		off := rnd.Intn(len(data) + 1)
		if i%3 == 0 {
			off = min(len(data), rnd.Intn(22)*chunk+rnd.Intn(3)-1)
			off = max(off, 0)
		}
		length := rnd.Intn(min(3*chunk, len(data)-off) + 1)
		got, err := rs.ReadSlice(bg, loc, off, length, prefix, chain)
		if err != nil {
			t.Fatalf("ReadSlice(%d,%d): %v", off, length, err)
		}
		if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], data[off:off+length]) {
			t.Fatalf("ReadSlice(%d,%d) through the directory differs from the record", off, length)
		}
	}
	// The walk to the last page taught the directory every page: a read of
	// the tail is now the stub plus one page, where a walk is the stub plus 21.
	if _, err := rs.ReadSlice(bg, loc, len(data)-1, 1, nil, chain); err != nil {
		t.Fatal(err)
	}
	jump := views(func() { rs.ReadSlice(bg, loc, len(data)-10, 10, nil, chain) })
	walk := views(func() { rs.ReadSlice(bg, loc, len(data)-10, 10, nil, nil) })
	if jump != 2 || walk != 22 {
		t.Errorf("tail read viewed %d pages through the directory and %d without, want 2 and 22", jump, walk)
	}
	// A directory for a record of another length, or another first page, is
	// passed over: the answer is still right.
	other, _, err := rs.InsertLast(data[:5*chunk])
	if err != nil {
		t.Fatal(err)
	}
	otherChain := rs.NewChain(5 * chunk)
	if _, err := rs.ReadSlice(bg, other, 4*chunk, 8, nil, otherChain); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []*Chain{otherChain, rs.NewChain(len(data) - chunk)} {
		got, err := rs.ReadSlice(bg, loc, 19*chunk+5, 30, nil, stale)
		if err != nil || !bytes.Equal(got, data[19*chunk+5:19*chunk+35]) {
			t.Errorf("read with a directory of another record: %v, right bytes %v", err, bytes.Equal(got, data[19*chunk+5:19*chunk+35]))
		}
	}
	same := rs.NewChain(len(data))
	same.pages[0].Store(uint32(otherChain.pages[0].Load()))
	if got, err := rs.ReadSlice(bg, loc, 3*chunk, 9, nil, same); err != nil || !bytes.Equal(got, data[3*chunk:3*chunk+9]) {
		t.Errorf("read with a directory headed by another page: %v", err)
	}
	// Cancellation between pages gives no partial slice.
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if got, err := rs.ReadSlice(ctx, loc, 0, len(data), nil, nil); !errors.Is(err, context.Canceled) || got != nil {
		t.Errorf("cancelled read returned %d bytes, %v", len(got), err)
	}
}

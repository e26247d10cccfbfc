// The segment-watch API a replication follower tails the archive with:
// strict listing order, duplicate-LSN refusal, the contiguity clip, and
// raw-byte validation via ParseSegment.
package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSegmentsRejectsDuplicateLSNs pins the ambiguity check: two
// differently-named files that both parse to the same LSN make "which
// bytes are commit 1?" unanswerable, so the listing must fail rather than
// pick one.
func TestSegmentsRejectsDuplicateLSNs(t *testing.T) {
	dir := t.TempDir()
	writeFakeSegment(t, dir, 1, 10)
	// A hand-renamed, non-zero-padded alias of the same LSN.
	if err := os.WriteFile(filepath.Join(dir, "1.seg"), make([]byte, 20), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Segments(dir); err == nil {
		t.Fatal("Segments accepted two files claiming the same LSN")
	} else if !strings.Contains(err.Error(), "LSN 1") {
		t.Fatalf("duplicate error does not name the LSN: %v", err)
	}
	if _, err := SegmentsAfter(dir, 0); err == nil {
		t.Fatal("SegmentsAfter accepted a duplicate-LSN archive")
	}
}

// TestSegmentsAfter pins the poll primitive: strictly-greater filtering on
// an ordered listing.
func TestSegmentsAfter(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{5, 2, 9, 3} {
		writeFakeSegment(t, dir, lsn, int(lsn))
	}
	cases := []struct {
		after uint64
		want  []uint64
	}{
		{0, []uint64{2, 3, 5, 9}},
		{2, []uint64{3, 5, 9}},
		{4, []uint64{5, 9}},
		{9, nil},
		{100, nil},
	}
	for _, c := range cases {
		segs, err := SegmentsAfter(dir, c.after)
		if err != nil {
			t.Fatalf("SegmentsAfter(%d): %v", c.after, err)
		}
		if len(segs) != len(c.want) {
			t.Fatalf("SegmentsAfter(%d) = %d entries, want %d", c.after, len(segs), len(c.want))
		}
		for i, w := range c.want {
			if segs[i].LSN != w {
				t.Fatalf("SegmentsAfter(%d)[%d].LSN = %d, want %d", c.after, i, segs[i].LSN, w)
			}
		}
	}
}

// TestContiguous pins the gap clip a follower applies before touching any
// segment: only the unbroken run after+1, after+2, ... is safe to apply.
func TestContiguous(t *testing.T) {
	mk := func(lsns ...uint64) []SegmentInfo {
		out := make([]SegmentInfo, len(lsns))
		for i, l := range lsns {
			out[i] = SegmentInfo{LSN: l}
		}
		return out
	}
	cases := []struct {
		name  string
		segs  []SegmentInfo
		after uint64
		want  int
	}{
		{"empty", nil, 0, 0},
		{"full run", mk(1, 2, 3), 0, 3},
		{"gap mid-run", mk(1, 2, 4, 5), 0, 2},
		{"missing head", mk(2, 3), 0, 0},
		{"resume mid-history", mk(4, 5, 7), 3, 2},
		{"resume at gap", mk(5, 6), 3, 0},
	}
	for _, c := range cases {
		got := Contiguous(c.segs, c.after)
		if len(got) != c.want {
			t.Errorf("%s: Contiguous = %d segments, want %d", c.name, len(got), c.want)
		}
		for i, s := range got {
			if s.LSN != c.after+1+uint64(i) {
				t.Errorf("%s: run[%d].LSN = %d, breaks contiguity", c.name, i, s.LSN)
			}
		}
	}
}

// TestParseSegmentValidatesRawBytes pins transport-side validation: a real
// archived segment round-trips through ParseSegment, and every torn,
// truncated or padded variant of its bytes is refused.
func TestParseSegmentValidatesRawBytes(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "s.db")
	arch := filepath.Join(dir, "arch")
	const ps = 512

	p, err := OpenWithOptions(db, ps, Options{ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for i := range buf {
		buf[i] = byte(i)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	name := SegmentFileName(1)
	data, err := os.ReadFile(filepath.Join(arch, name))
	if err != nil {
		t.Fatal(err)
	}

	pages, lsn, err := ParseSegment(name, data, ps, nil)
	if err != nil {
		t.Fatalf("ParseSegment on intact bytes: %v", err)
	}
	if lsn != 1 {
		t.Fatalf("segment LSN = %d, want 1", lsn)
	}
	if len(pages) == 0 {
		t.Fatal("segment parsed to zero page images")
	}

	// Torn fetch: every proper prefix must fail (a transport under
	// concurrent shipping returns exactly these).
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, _, err := ParseSegment(name, data[:cut], ps, nil); err == nil {
			t.Errorf("ParseSegment accepted a %d/%d-byte torn prefix", cut, len(data))
		}
	}
	// Trailing garbage after the commit record.
	if _, _, err := ParseSegment(name, append(append([]byte{}, data...), 0xAB), ps, nil); err == nil {
		t.Error("ParseSegment accepted trailing bytes after the commit")
	}
	// A flipped byte in a record body breaks that record's CRC.
	bad := append([]byte{}, data...)
	bad[len(bad)/2] ^= 0xFF
	if _, _, err := ParseSegment(name, bad, ps, nil); err == nil {
		t.Error("ParseSegment accepted a corrupted record")
	}
	// Wrong page size: the page image length no longer matches.
	if _, _, err := ParseSegment(name, data, ps*2, nil); err == nil {
		t.Error("ParseSegment accepted a segment under the wrong page size")
	}
}

package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tempPaths(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	return path, path + ".wal"
}

func TestBasicWriteCommitRead(t *testing.T) {
	path, _ := tempPaths(t)
	p, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	copy(buf, "journaled data")
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	// Pending writes are visible to reads before commit.
	got := make([]byte, 512)
	if err := p.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("pending read mismatch")
	}
	if p.Pending() != 1 {
		t.Fatalf("pending = %d", p.Pending())
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: data durable, no WAL left.
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("durable read mismatch")
	}
}

func TestCrashBeforeCommitLosesNothingDurable(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	committed := make([]byte, 512)
	copy(committed, "committed state")
	p.WritePage(id, committed)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// New write, then crash without commit.
	uncommitted := make([]byte, 512)
	copy(uncommitted, "uncommitted state")
	p.WritePage(id, uncommitted)
	p.CloseWithoutCommit()

	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Errorf("after crash: %q, want committed state", got[:20])
	}
	// The reopened pager recreates its log: a start record and no batch.
	if st, err := os.Stat(walPath); err != nil || st.Size() != startRecord {
		t.Errorf("wal after recovery: %v, size %d, want %d", err, st.Size(), startRecord)
	}
}

func TestRecoveryReplaysCompleteBatch(t *testing.T) {
	// Simulate a crash after the WAL fsync but before the apply: write the
	// WAL by hand via Commit, then undo the main-file apply by truncating
	// the main file back, then recover.
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	data := make([]byte, 512)
	copy(data, "batch payload")
	p.WritePage(id, data)

	// Capture the WAL image Commit would write, then "crash" before apply:
	// emulate by writing the WAL file manually and closing without commit.
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recPage, uint32(id), data)
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	if err := os.WriteFile(walPath, p.buf, 0o644); err != nil {
		t.Fatal(err)
	}
	p.CloseWithoutCommit()

	// Recovery must apply the batch.
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("recovered page = %q", got[:20])
	}
}

func TestRecoveryDiscardsTornBatch(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	data := make([]byte, 512)
	copy(data, "will be torn")
	p.WritePage(id, data)
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recPage, uint32(id), data)
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	// Torn write: drop the last 10 bytes (commit record corrupted).
	if err := os.WriteFile(walPath, p.buf[:len(p.buf)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	p.CloseWithoutCommit()

	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("torn batch was applied")
		}
	}
}

func TestRecoveryDetectsCorruptCRC(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	data := make([]byte, 512)
	p.WritePage(id, data)
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recPage, uint32(id), data)
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	img := append([]byte{}, p.buf...)
	img[8] ^= 0xFF // flip a payload byte: CRC of the page record breaks
	os.WriteFile(walPath, img, 0o644)
	p.CloseWithoutCommit()

	// The corrupt record truncates the log: open succeeds, nothing applied.
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
}

func TestMultiBatchRecovery(t *testing.T) {
	// Two complete batches in the log (crash happened during the second
	// apply): both must be replayed, last writer wins.
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	v1 := bytes.Repeat([]byte{1}, 512)
	v2 := bytes.Repeat([]byte{2}, 512)
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recPage, uint32(id), v1)
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	p.buf = appendRecord(p.buf, recPage, uint32(id), v2)
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	os.WriteFile(walPath, p.buf, 0o644)
	p.CloseWithoutCommit()

	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	p2.ReadPage(id, got)
	if got[0] != 2 {
		t.Errorf("page value %d, want 2 (second batch)", got[0])
	}
}

func TestFreedPendingPageNotCommitted(t *testing.T) {
	path, _ := tempPaths(t)
	p, _ := Open(path, 512)
	defer p.Close()
	id, _ := p.Allocate()
	data := make([]byte, 512)
	p.WritePage(id, data)
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 0 {
		t.Error("freed page still pending")
	}
}

func TestClosedPagerRejectsOps(t *testing.T) {
	path, _ := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	p.Close()
	buf := make([]byte, 512)
	if _, err := p.Allocate(); err == nil {
		t.Error("allocate after close")
	}
	if err := p.ReadPage(id, buf); err == nil {
		t.Error("read after close")
	}
	if err := p.WritePage(id, buf); err == nil {
		t.Error("write after close")
	}
	if err := p.Commit(); err == nil {
		t.Error("commit after close")
	}
	if err := p.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestRecoveryRejectsWrongPageSize(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	img := make([]byte, 512)
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recPage, uint32(id), img)
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	os.WriteFile(walPath, p.buf, 0o644)
	p.CloseWithoutCommit()
	// Reopen with a different page size: the logged image no longer fits.
	if _, err := Open(path, 1024); err == nil {
		t.Error("page-size mismatch should fail recovery")
	}
}

func TestRecoveryRejectsBadCommitCount(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	img := make([]byte, 512)
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recPage, uint32(id), img)
	p.buf = appendRecord(p.buf, recCommit, 7, nil) // names 7 pages, batch has 1
	os.WriteFile(walPath, p.buf, 0o644)
	p.CloseWithoutCommit()
	if _, err := Open(path, 512); err == nil {
		t.Error("commit-count mismatch should fail recovery")
	}
}

func TestRecoveryRejectsUnknownRecordType(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, 9, 0, nil) // bogus type with a valid CRC
	os.WriteFile(walPath, p.buf, 0o644)
	p.CloseWithoutCommit()
	if _, err := Open(path, 512); err == nil {
		t.Error("unknown record type should fail recovery")
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	path, _ := tempPaths(t)
	p, _ := Open(path, 512)
	defer p.Close()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, live, logged, _, _ := p.JournalStats(); live != 0 || logged != 0 {
		t.Errorf("empty commit wrote %d wal bytes (%d live)", logged, live)
	}
}

// A delta's runs carry absolute bytes: applied to the page before its
// batch, to the page after it, or to any byte-wise mix of the two — a torn
// write — it gives the page after it. A delta that would outgrow its limit
// is refused.
func TestDeltaAppliesOverAnyMix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		before := make([]byte, 512)
		rng.Read(before)
		after := bytes.Clone(before)
		for n := rng.Intn(6); n > 0; n-- {
			off := rng.Intn(500)
			rng.Read(after[off : off+1+rng.Intn(12)])
		}
		runs, ok := appendDelta(nil, before, after, len(after)/2)
		if !ok {
			t.Fatalf("trial %d: a few short edits outgrew half a page", trial)
		}
		for _, base := range [][]byte{before, after, mix(rng, before, after)} {
			img := bytes.Clone(base)
			if err := applyDelta(img, runs); err != nil || !bytes.Equal(img, after) {
				t.Fatalf("trial %d: applying the delta gave a different page (err %v)", trial, err)
			}
		}
	}
	whole := make([]byte, 512)
	rng.Read(whole)
	if _, ok := appendDelta(nil, make([]byte, 512), whole, 256); ok {
		t.Fatal("a whole-page rewrite fitted in half a page")
	}
}

func mix(rng *rand.Rand, a, b []byte) []byte {
	out := bytes.Clone(a)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = b[i]
		}
	}
	return out
}

// A delta whose page has no earlier image in the log is corruption: neither
// recovery nor a read-only open patches it from the page file, which a torn
// checkpoint may have left as neither the old page nor the new. The error
// names the package once.
func TestRecoveryRejectsDeltaWithoutBase(t *testing.T) {
	path, walPath := tempPaths(t)
	p, _ := Open(path, 512)
	id, _ := p.Allocate()
	p.buf = p.buf[:0]
	p.buf = appendRecord(p.buf, recDelta, uint32(id), []byte{0, 1, 0xAA}) // one run: offset 0, one byte
	p.buf = appendRecord(p.buf, recCommit, 1, nil)
	os.WriteFile(walPath, p.buf, 0o644)
	p.CloseWithoutCommit()
	if ro, err := OpenReadOnly(path, 512); err == nil {
		ro.Close()
		t.Error("read-only open resolved a delta with no base in the log")
	} else if msg := err.Error(); strings.Count(msg, "wal:") != 1 || !strings.Contains(msg, "has no earlier image") {
		t.Errorf("read-only open: %q, want the no-base delta named with one \"wal:\"", msg)
	}
	if _, err := Open(path, 512); err == nil {
		t.Error("recovery resolved a delta with no base in the log")
	}
}

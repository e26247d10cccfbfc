package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// openArchived opens a fault-wrapped journaled pager with segment
// archiving into <dir>/segments.
func openArchived(t *testing.T, inj *fault.Injector) (*Pager, string, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.db")
	arch := filepath.Join(dir, "segments")
	p, err := OpenWithOptions(path, 512, Options{
		ArchiveDir: arch,
		WrapPager:  func(ip InnerPager) InnerPager { return fault.NewPager(inj, ip) },
		WrapLog:    func(f File) File { return fault.NewFile(inj, f) },
		Retries:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, path, arch
}

// The log fsync is the commit point: a checkpoint that then fails to write
// the page file un-commits nothing. The batch keeps its LSN and its archive
// segment, reads see it through the overlay, discarding unstaged pages does
// not touch it, and the next commit takes the next LSN — never a reused one.
func TestFailedCheckpointKeepsCommit(t *testing.T) {
	inj := fault.NewInjector(fault.Config{})
	p, path, arch := openArchived(t, inj)

	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(id, bytes.Repeat([]byte{0x11}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil { // LSN 1
		t.Fatal(err)
	}
	p.waitCheckpoint()

	// Second batch: the disk fills between the log write and the checkpoint
	// (the page file is one page, so every commit starts one).
	second := bytes.Repeat([]byte{0x22}, 512)
	if err := p.WritePage(id, second); err != nil {
		t.Fatal(err)
	}
	inj.ArmDiskFull(2) // write 1 = log append (succeeds), write 2 = page apply
	if err := p.Commit(); err != nil {
		t.Fatalf("commit: %v; the batch was durable before the checkpoint failed", err)
	}
	p.waitCheckpoint()
	if !inj.DiskFull() {
		t.Fatal("the checkpoint never hit the full disk")
	}
	if p.LSN() != 2 {
		t.Fatalf("LSN %d after a durable commit, want 2", p.LSN())
	}
	if _, _, checkpoints, failed, logBytes, _, _, _ := p.JournalStats(); checkpoints != 1 || failed != 1 || logBytes == 0 {
		t.Fatalf("checkpoints %d (%d failed), log %d bytes: the failed checkpoint must be counted and leave the log in place", checkpoints, failed, logBytes)
	}
	seg2 := filepath.Join(arch, SegmentFileName(2))
	pages, lsn, err := ReadSegment(seg2, 512, nil)
	if err != nil {
		t.Fatalf("segment 2: %v", err)
	}
	if lsn != 2 || len(pages) != 1 || !bytes.Equal(pages[0].Data, second) {
		t.Fatal("segment 2 does not describe the batch that committed as LSN 2")
	}

	p.DiscardPending()
	if _, err := os.Stat(seg2); err != nil {
		t.Fatalf("discard removed a committed batch's segment: %v", err)
	}
	got := make([]byte, 512)
	if err := p.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, second) {
		t.Fatal("committed image not served while its checkpoint is outstanding")
	}

	// Space comes back. The next commit is LSN 3; after one failure the
	// journal backs off for one commit, so it is the commit after that whose
	// checkpoint folds all three batches into the page file.
	inj.FreeSpace()
	third := bytes.Repeat([]byte{0x33}, 512)
	for lsn := uint64(3); lsn <= 4; lsn++ {
		if err := p.WritePage(id, third); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		p.waitCheckpoint()
		if p.LSN() != lsn {
			t.Fatalf("LSN after recommit: %d, want %d", p.LSN(), lsn)
		}
		_, _, checkpoints, failed, logBytes, _, _, _ := p.JournalStats()
		if lsn == 3 && (checkpoints != 1 || failed != 1 || logBytes == 0) {
			t.Fatalf("commit 3: checkpoints %d (%d failed), log %d bytes: the retry must wait out the backoff", checkpoints, failed, logBytes)
		}
		if lsn == 4 && (checkpoints != 2 || failed != 1 || logBytes != 0) {
			t.Fatalf("commit 4: checkpoints %d (%d failed), log %d bytes after the retried checkpoint", checkpoints, failed, logBytes)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenWithOptions(path, 512, Options{ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, third) {
		t.Fatal("reopened store does not hold the last commit")
	}
}

// A failure in the start-record write at the end of a checkpoint must not
// leave the LSN un-advanced, or the next commit would reuse it and silently
// rewrite an archived segment with different bytes, voiding the history for
// restores.
func TestTruncateFailureDoesNotReuseLSN(t *testing.T) {
	inj := fault.NewInjector(fault.Config{})
	p, path, arch := openArchived(t, inj)

	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(id, bytes.Repeat([]byte{0xAA}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil { // LSN 1
		t.Fatal(err)
	}
	p.waitCheckpoint()

	second := bytes.Repeat([]byte{0xBB}, 512)
	if err := p.WritePage(id, second); err != nil {
		t.Fatal(err)
	}
	// Mutating ops in this commit: log write, log sync, then the
	// checkpoint's page apply, page-file sync and start-record write —
	// crash there. The commit itself is long durable and reports success.
	inj.ArmCrash(5)
	if err := p.Commit(); err != nil {
		t.Fatalf("commit: %v; only its checkpoint failed", err)
	}
	p.waitCheckpoint()
	if !inj.Crashed() {
		t.Fatal("the crash at the start record never fired")
	}
	if p.LSN() != 2 {
		t.Fatalf("LSN %d after a post-apply start-record failure, want 2: the batch is durable", p.LSN())
	}
	if p.Pending() != 0 {
		t.Fatalf("%d pages still pending for a batch that durably committed", p.Pending())
	}

	// Simulate process death; reopening replays the log from its old start —
	// idempotent re-apply, identical re-archive — and resumes at LSN 2.
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenWithOptions(path, 512, Options{ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.LSN() != 2 {
		t.Fatalf("LSN after reopen: %d, want 2", p2.LSN())
	}
	got := make([]byte, 512)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, second) {
		t.Fatal("committed batch lost across the start-record failure")
	}
	if err := p2.WritePage(id, bytes.Repeat([]byte{0xCC}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := p2.Commit(); err != nil {
		t.Fatal(err)
	}
	if p2.LSN() != 3 {
		t.Fatalf("next commit got LSN %d, want 3 (no reuse of 2)", p2.LSN())
	}
	pages, lsn, err := ReadSegment(filepath.Join(arch, SegmentFileName(2)), 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 || len(pages) != 1 || !bytes.Equal(pages[0].Data, second) {
		t.Fatal("segment 2 no longer describes the batch that committed as LSN 2")
	}
}

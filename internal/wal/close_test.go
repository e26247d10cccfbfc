package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/pagestore"
)

func openFaulty(t *testing.T, inj *fault.Injector) (*Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenWithOptions(path, 512, Options{
		WrapPager: func(ip InnerPager) InnerPager { return fault.NewPager(inj, ip) },
		WrapLog:   func(f File) File { return fault.NewFile(inj, f) },
		Retries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, path
}

// A crash in the checkpoint that follows a commit does not fail the commit —
// the batch is durable in the log — but Close, which must checkpoint, does
// report it. Close still closes both files, discards nothing that was
// committed, and leaves the log on disk exactly as it was, so the next Open
// replays it.
func TestCloseAfterFailedCheckpointDurableBatch(t *testing.T) {
	inj := fault.NewInjector(fault.Config{})
	p, path := openFaulty(t, inj)
	id, err := p.Allocate() // op 1
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := p.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	// Crash at the page apply: ops from now are log write (1), log sync
	// (2), page write (3). The batch is durable in the log by then.
	inj.ArmCrash(3)
	if err := p.Commit(); err != nil {
		t.Fatalf("commit: %v; the log fsync succeeded", err)
	}
	if !inj.Crashed() {
		t.Fatal("the checkpoint never reached the crash point")
	}
	if p.Pending() != 0 {
		t.Fatalf("%d pages still pending for a staged batch", p.Pending())
	}
	if err := p.Close(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("close after failed checkpoint: got %v, want the checkpoint error", err)
	}
	if err := p.WritePage(id, data); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: got %v, want ErrClosed", err)
	}
	// The synced log must replay the committed batch on reopen.
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatalf("reopen after failed close: %v", err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("durable batch was not recovered after Close-with-failed-checkpoint")
	}
}

// Same scenario, but the crash lands on the log write itself: nothing is
// durable, and reopening must yield the pre-commit state, not an error.
func TestCloseAfterFailedCommitNothingDurable(t *testing.T) {
	inj := fault.NewInjector(fault.Config{})
	p, path := openFaulty(t, inj)
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xCD}, 512)
	if err := p.WritePage(id, data); err != nil {
		t.Fatal(err)
	}
	inj.ArmCrash(1) // the log write fails; log stays empty
	if err := p.Commit(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("commit: got %v, want ErrCrashed", err)
	}
	if err := p.Close(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("close: got %v, want the commit error", err)
	}
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("uncommitted batch leaked to the page file")
	}
}

// A second Close is a no-op even after a failed first Close.
func TestDoubleCloseAfterFailure(t *testing.T) {
	inj := fault.NewInjector(fault.Config{})
	p, _ := openFaulty(t, inj)
	id, _ := p.Allocate()
	p.WritePage(id, make([]byte, 512))
	inj.ArmCrash(1)
	if err := p.Close(); err == nil {
		t.Fatal("close should surface the commit failure")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

var _ pagestore.Pager = (*Pager)(nil)

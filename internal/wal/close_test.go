package wal

import (
	"bytes"
	"errors"
	"os"
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
	p.waitCheckpoint()
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

// A cleanly closed store is one complete page file beside an empty log,
// however many laps the log ran: Close truncates it once its checkpoint has
// made everything in it redundant, and both ways of reopening see every
// commit.
func TestCloseLeavesEmptyLog(t *testing.T) {
	s := openLapStore(t)
	for lap := 0; lap < 3; lap++ {
		for k := 0; k < 4; k++ {
			s.commit(k, byte(0x10*lap+k))
		}
		s.checkpoint()
	}
	s.commit(0, 0x40) // still in the log when Close begins
	if err := s.p.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(s.path + ".wal"); err != nil || st.Size() != 0 {
		t.Fatalf("log after a clean close: %v, %d bytes", err, st.Size())
	}
	check := func(what string, read func(pagestore.PageID, []byte) error) {
		buf := make([]byte, 512)
		for id, img := range s.want {
			if err := read(id, buf); err != nil || !bytes.Equal(buf, img) {
				t.Fatalf("page %d through %s: %#x, want %#x (err %v)", id, what, buf[0], img[0], err)
			}
		}
	}
	ro, err := OpenReadOnly(s.path, 512)
	if err != nil {
		t.Fatal(err)
	}
	check("a read-only open", ro.ReadPage)
	ro.Close()
	p, err := Open(s.path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	check("a reopen", p.ReadPage)
}

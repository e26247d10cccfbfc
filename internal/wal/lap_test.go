package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/pagestore"
)

// The log is a ring overwritten lap after lap, so what lies past its tail
// after a crash is an earlier lap's bytes. These tests place those bytes
// exactly where they do harm — commits of identical shape make the laps line
// up — and crash there: replay must stop at the tail, and a read-only open
// must see what recovery produces.

var errPowerCut = errors.New("power cut")

// crashLog decides what of each log write reaches the file. A test arms
// write to tear one (keep a prefix, fail) or to lose one (keep nothing,
// report success: a write the OS never flushed) and sync to fail a log
// fsync, as a power cut would.
type crashLog struct {
	File
	write func(p []byte, off int64) (keep int, err error)
	sync  func() error
}

func (f *crashLog) WriteAt(p []byte, off int64) (int, error) {
	if f.write == nil {
		return f.File.WriteAt(p, off)
	}
	keep, err := f.write(p, off)
	if keep > 0 {
		if _, werr := f.File.WriteAt(p[:keep], off); werr != nil {
			return 0, werr
		}
	}
	if err != nil {
		return keep, err
	}
	return len(p), nil
}

func (f *crashLog) Sync() error {
	if f.sync != nil {
		if err := f.sync(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// lapStore is a journaled pager whose page file is large enough that only
// an explicit Checkpoint ends a lap.
type lapStore struct {
	t    *testing.T
	path string
	p    *Pager
	log  *crashLog
	ids  []pagestore.PageID
	want map[pagestore.PageID][]byte // acknowledged images
}

func openLapStore(t *testing.T) *lapStore {
	t.Helper()
	s := &lapStore{t: t, path: filepath.Join(t.TempDir(), "pages.db"), want: map[pagestore.PageID][]byte{}}
	var err error
	s.p, err = OpenWithOptions(s.path, 512, Options{
		WrapLog: func(f File) File { s.log = &crashLog{File: f}; return s.log },
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ids = make([]pagestore.PageID, 1000)
	for i := range s.ids {
		if s.ids[i], err = s.p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// write stages one batch of full images: pages 2k and 2k+1, filled with b.
// Every such batch has the same size.
func (s *lapStore) write(k int, b byte) error {
	s.t.Helper()
	for _, id := range s.ids[2*k : 2*k+2] {
		if err := s.p.WritePage(id, fill(b)); err != nil {
			s.t.Fatal(err)
		}
	}
	_, err := s.p.Stage()
	return err
}

// commit stages and acknowledges one batch.
func (s *lapStore) commit(k int, b byte) {
	s.t.Helper()
	if err := s.write(k, b); err != nil {
		s.t.Fatal(err)
	}
	if err := s.p.Sync(s.p.staged); err != nil {
		s.t.Fatal(err)
	}
	for _, id := range s.ids[2*k : 2*k+2] {
		s.want[id] = fill(b)
	}
}

func (s *lapStore) checkpoint() {
	s.t.Helper()
	if err := s.p.Checkpoint(); err != nil {
		s.t.Fatal(err)
	}
}

// crashed ends the session and checks that the read-only view and recovery
// both give exactly the acknowledged images.
func (s *lapStore) crashed() {
	s.t.Helper()
	if err := s.p.CloseWithoutCommit(); err != nil {
		s.t.Fatal(err)
	}
	check := func(what string, read func(pagestore.PageID, []byte) error) {
		buf := make([]byte, 512)
		for id, img := range s.want {
			if err := read(id, buf); err != nil || !bytes.Equal(buf, img) {
				s.t.Fatalf("%s: page %d holds %#x, want the acknowledged %#x (err %v)", what, id, buf[0], img[0], err)
			}
		}
	}
	ro, err := OpenReadOnly(s.path, 512)
	if err != nil {
		s.t.Fatalf("read-only open: %v", err)
	}
	check("read-only open", ro.ReadPage)
	ro.Close()
	p, err := Open(s.path, 512)
	if err != nil {
		s.t.Fatalf("recovery: %v", err)
	}
	defer p.Close()
	check("recovery", p.ReadPage)
}

// Checkpoint, then crash before the next batch's log fsync: reopen gives
// exactly the checkpointed pages. The lap before the checkpoint rewrote
// the pages its first batch wrote, so replaying that batch alone — what a
// log with no start record past it offers once the new lap's first write
// is lost — would roll them back; and the new batch torn at a record
// boundary must not complete itself from the old lap's records behind it.
func TestCrashAfterRewindKeepsCheckpoint(t *testing.T) {
	lap := func(t *testing.T) *lapStore {
		s := openLapStore(t)
		s.commit(0, 0x11)
		s.commit(1, 0x12)
		s.commit(0, 0x13)
		s.checkpoint()
		return s
	}
	t.Run("first write lost", func(t *testing.T) {
		s := lap(t)
		lost := false
		s.log.write = func(p []byte, _ int64) (int, error) {
			if !lost {
				lost = true
				return 0, nil
			}
			return len(p), nil
		}
		s.log.sync = func() error { return errPowerCut }
		if err := s.write(0, 0x14); err != nil {
			t.Fatal(err)
		}
		if err := s.write(1, 0x15); err != nil {
			t.Fatal(err)
		}
		if err := s.p.Sync(s.p.staged); !errors.Is(err, errPowerCut) {
			t.Fatalf("sync: %v", err)
		}
		s.crashed()
	})
	for _, records := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("torn after %d records", records), func(t *testing.T) {
			s := lap(t)
			s.log.write = func([]byte, int64) (int, error) {
				return records * (recHeader + 512 + 4), errPowerCut
			}
			if err := s.write(0, 0x14); !errors.Is(err, errPowerCut) {
				t.Fatalf("stage: %v", err)
			}
			s.crashed()
		})
	}
}

// A new lap's batch torn exactly at a record boundary, over the previous
// lap's batch at the same offset: the torn batch's first page, the old
// batch's second and the old batch's commit record read as one complete
// batch of the right size. Only the commit LSN tells them apart, and the
// reopen gives the acknowledged prefix.
func TestTornBatchOverAlignedLap(t *testing.T) {
	s := openLapStore(t)
	s.commit(0, 0x11)
	s.checkpoint()
	s.commit(0, 0x21) // this lap and the next start behind a header: aligned
	s.commit(1, 0x22)
	s.commit(2, 0x23)
	s.checkpoint()
	s.commit(0, 0x31)
	s.log.write = func([]byte, int64) (int, error) { return recHeader + 512 + 4, errPowerCut }
	if err := s.write(1, 0x32); !errors.Is(err, errPowerCut) {
		t.Fatalf("stage: %v", err)
	}
	s.crashed()
}

// A checkpoint whose start record cannot be written fails and leaves the
// ring's head where it was: the next batches go behind the lap it folded,
// never over it. Were they written over that lap with the old start record
// still naming it, losing the first while the one after it survives would
// replay the lap's first batch alone and roll back the page the lap
// rewrote.
func TestOwedLapHeader(t *testing.T) {
	s := openLapStore(t)
	s.commit(0, 0x11)
	s.commit(1, 0x12)
	s.commit(0, 0x13)
	s.log.write = func([]byte, int64) (int, error) { return 0, errors.New("input/output error") }
	if err := s.p.Checkpoint(); err == nil {
		t.Fatal("a checkpoint whose start record failed reported success")
	}
	lost := false
	s.log.write = func(p []byte, _ int64) (int, error) {
		if len(p) != startRecord && !lost {
			lost = true
			return 0, nil
		}
		return len(p), nil
	}
	s.log.sync = func() error {
		if lost {
			return errPowerCut
		}
		return nil
	}
	if err := s.write(0, 0x14); err != nil {
		t.Fatal(err)
	}
	if err := s.write(1, 0x15); err != nil {
		t.Fatal(err)
	}
	if err := s.p.Sync(s.p.staged); !errors.Is(err, errPowerCut) {
		t.Fatalf("sync: %v", err)
	}
	s.crashed()
}

// A checkpoint whose page file is written and fsynced, but whose start
// record then fails, may have made that record durable all the same: a log
// fsync can fail after the bytes reached the disk, and a write reported as
// failed may have landed; either way the next log fsync makes it durable.
// So the pages the checkpoint wrote leave the overlay, and the next commit
// logs them in full: a delta against an image only the folded batches hold
// has no base in a replay that starts at the new record.
func TestFailedStartRecordMayBeDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*crashLog)
	}{
		{"fsync fails", func(l *crashLog) {
			l.sync = func() error { l.sync = nil; return errors.New("input/output error") }
		}},
		{"write reports failure", func(l *crashLog) {
			l.write = func(p []byte, _ int64) (int, error) {
				l.write = nil
				return len(p), errors.New("input/output error")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openLapStore(t)
			s.commit(0, 0x11)
			s.commit(1, 0x12)
			tc.arm(s.log)
			if err := s.p.Checkpoint(); err == nil {
				t.Fatal("a checkpoint whose start record failed reported success")
			}
			// A one-byte change: a delta, were the folded image still a base.
			id := s.ids[0]
			img := fill(0x11)
			img[7] = 0x77
			if err := s.p.WritePage(id, img); err != nil {
				t.Fatal(err)
			}
			if err := s.p.Commit(); err != nil {
				t.Fatal(err)
			}
			s.want[id] = img
			s.crashed()
		})
	}
}

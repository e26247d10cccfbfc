package fault_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
)

// insertFrag inserts one marker element as last content of the root.
func insertFrag(t *testing.T, s *core.Store, marker string) {
	t.Helper()
	root, ok, err := s.FirstNodeID()
	if err != nil || !ok {
		t.Fatalf("no root: %v", err)
	}
	frag, err := axml.ParseFragment(fmt.Sprintf(`<e n="%s"/>`, marker))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertIntoLast(root, frag); err != nil {
		t.Fatal(err)
	}
}

// A full disk must never lose an acknowledged commit, must surface as a
// typed ENOSPC error where it does fail one, must corrupt nothing, and must
// leave the store usable in place once space frees up. The store here is a
// few pages, so every commit starts a checkpoint (waited for here, so that
// writes count in order) and the three write boundaries are: atWrite 1, the
// log write itself — the flush fails, nothing was staged, and in-place
// repair discards the batch; atWrite 2 and 3, the first and a later page
// write of the checkpoint — the flush has already passed its commit point,
// so it succeeds, the store stays writable, and the failed checkpoint is
// simply owed.
func testDiskFull(t *testing.T, atWrite int) {
	dir := t.TempDir()
	db := filepath.Join(dir, "store.db")
	inj := fault.NewInjector(fault.Config{})
	wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { return fault.NewPager(inj, ip) },
		WrapLog:   func(f wal.File) wal.File { return fault.NewFile(inj, f) },
		Retries:   -1, // ErrDiskFull is not transient; don't slow the test
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Pager: wp, PageSize: cmPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := axml.LoadXMLString(s, `<log/>`); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the checkpoint the load started; nothing is left to fold.
	if err := wp.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	inj.ArmDiskFull(atWrite)
	insertFrag(t, s, "full")
	ferr := s.Flush()
	if ferr == nil {
		// The checkpoint the commit started fails in the background.
		for deadline := time.Now().Add(10 * time.Second); s.Stats().WALCheckpointFailures == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the checkpoint on a full disk never ended")
			}
		}
	}
	if !inj.DiskFull() {
		t.Fatal("injector does not report the disk as full")
	}
	acked := ferr == nil
	if acked != (atWrite > 1) {
		t.Fatalf("flush with the disk filling at write %d: %v", atWrite, ferr)
	}
	if acked {
		if ro, cause := s.ReadOnly(); ro {
			t.Fatalf("a failed checkpoint degraded the store: %v", cause)
		}
		// Healthy, but not silent: the failure is on the stats page.
		if st := s.Stats(); st.WALCheckpointFailures != 1 || st.WALLogBytes == 0 {
			t.Fatalf("failed checkpoint not reported: %d failures, %d log bytes", st.WALCheckpointFailures, st.WALLogBytes)
		}
		// The log cannot grow either: the next commit fails at its log
		// write and is not acknowledged.
		insertFrag(t, s, "lost")
		ferr = s.Flush()
	}
	if !errors.Is(ferr, fault.ErrDiskFull) || !errors.Is(ferr, syscall.ENOSPC) {
		t.Fatalf("flush error %v does not wrap ErrDiskFull/ENOSPC", ferr)
	}
	// The store latches itself read-only rather than risk the suspect
	// state (ReadOnly then also reports the latch cause as its error).
	if ro, _ := s.ReadOnly(); !ro {
		t.Fatal("store not degraded after failed flush")
	}

	// Space comes back; in-place repair discards the unstaged batch, keeps
	// every committed one, and lifts the read-only latch.
	inj.FreeSpace()
	rep, err := s.Repair(true)
	if err != nil {
		t.Fatalf("repair after ENOSPC: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("on-disk state corrupt after ENOSPC: %+v", rep.Result)
	}
	if ro, err := s.ReadOnly(); err != nil || ro {
		t.Fatalf("store still read-only after repair (ro=%v err=%v)", ro, err)
	}

	insertFrag(t, s, "ok")
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after space freed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: every acknowledged insert, and nothing that was refused.
	xml := validate(t, db)
	if !strings.Contains(xml, `n="ok"`) {
		t.Errorf("post-recovery document lost the committed insert: %s", xml)
	}
	if present := strings.Contains(xml, `n="full"`); present != acked {
		t.Errorf("insert during ENOSPC: acknowledged %v, present %v: %s", acked, present, xml)
	}
	if strings.Contains(xml, `n="lost"`) {
		t.Errorf("the ENOSPC-failed insert was resurrected: %s", xml)
	}
}

func TestDiskFullAtLogWrite(t *testing.T)       { testDiskFull(t, 1) }
func TestDiskFullAtCheckpoint(t *testing.T)     { testDiskFull(t, 2) }
func TestDiskFullLateInCheckpoint(t *testing.T) { testDiskFull(t, 3) }

// The same on a lazily checkpointed store: three acknowledged commits are in
// the log, none in the page file, when the disk fills partway through the
// checkpoint Close runs. Close reports it; the log is untouched, and reopen
// has all three.
func TestDiskFullMidLazyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "store.db")
	g := lazyGeometry()
	g.prefix = 3
	states := buildBase(t, db, g)
	inj := fault.NewInjector(fault.Config{})
	wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { return fault.NewPager(inj, ip) },
		WrapLog:   func(f wal.File) wal.File { return fault.NewFile(inj, f) },
		Retries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Reopen(core.Config{PageSize: cmPageSize}, wp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.prefix; i++ {
		if err := mutate(s, g, i); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.WALCheckpoints != 0 || st.WALLogBytes == 0 {
		t.Fatalf("expected %d commits waiting in the log, got %d checkpoints and %d log bytes", g.prefix, st.WALCheckpoints, st.WALLogBytes)
	}
	inj.ArmDiskFull(2) // the checkpoint's second page write
	if err := s.Close(); !errors.Is(err, fault.ErrDiskFull) {
		t.Fatalf("close with the disk filling mid-checkpoint: %v", err)
	}
	if xml := validate(t, db); xml != states[g.prefix] {
		t.Fatalf("reopened store is not the state after %d acknowledged commits", g.prefix)
	}
}

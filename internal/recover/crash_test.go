// Crash matrices for the recovery paths themselves: repair and restore are
// swept with a simulated crash at every I/O boundary they have. Repair must
// leave the store either fully repaired or untouched (never half-switched);
// a crashed restore must never leave a destination file at all.
package recover_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/wal"
)

// runRepairFaulty runs Repair (apply) over a fault-injected journaled
// pager, with a crash armed crashAt I/O boundaries past the open (0 =
// never), and abandons the session the way a crash would — without a
// closing commit. It returns the boundaries the repair crossed.
func runRepairFaulty(t *testing.T, db string, cfg fault.Config, crashAt int) (*fault.Injector, int, error) {
	t.Helper()
	inj := fault.NewInjector(cfg)
	wp, err := wal.OpenWithOptions(db, pgSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { return fault.NewPager(inj, ip) },
		WrapLog:   func(f wal.File) wal.File { return fault.NewFile(inj, f) },
		Retries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := inj.Ops()
	if crashAt > 0 {
		inj.ArmCrash(crashAt)
	}
	_, rerr := core.RepairPager(wp, 1, true)
	n := inj.Ops() - before
	wp.CloseWithoutCommit()
	return inj, n, rerr
}

// salvageState reopens db cleanly (WAL recovery runs) and reports whether
// the raw scan is clean and which pages are bad.
func salvageState(t *testing.T, db string) (clean bool, badPages []uint32) {
	t.Helper()
	wp, err := wal.Open(db, pgSize)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	rep, serr := core.SalvageScan(wp, 1)
	if err := wp.Close(); err != nil {
		t.Fatalf("recovery close: %v", err)
	}
	if serr != nil {
		t.Fatalf("salvage scan: %v", serr)
	}
	for _, f := range rep.BadPages {
		badPages = append(badPages, f.Page)
	}
	return rep.Clean, badPages
}

// Crash inside repair at every I/O boundary: afterwards the store must be
// either fully repaired (the rebuild batch committed and replayed) or
// still exactly as damaged as before — and a subsequent clean repair must
// always converge to the reference result.
func TestRepairCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	base := buildStore(t, dir, nightlyScale(24, 64))
	_, dataPages := scanRecords(t, base)
	badPage := dataPages[len(dataPages)/2]
	corruptPage(t, base, badPage)

	// Reference: repair a copy cleanly to learn the target document.
	ref := filepath.Join(dir, "ref.db")
	copyFile(t, base, ref)
	if _, err := axml.RepairFile(ref, testCfg(), true, ""); err != nil {
		t.Fatalf("reference repair: %v", err)
	}
	expected := xmlOf(t, ref)

	countDB := filepath.Join(dir, "count.db")
	copyFile(t, base, countDB)
	_, n, err := runRepairFaulty(t, countDB, fault.Config{}, 0)
	if err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if n < 6 {
		t.Fatalf("counting run saw only %d ops", n)
	}
	t.Logf("repair crash matrix: %d I/O boundaries", n)

	sawOld, sawNew := false, false
	for k := 1; k <= n; k++ {
		db := filepath.Join(dir, fmt.Sprintf("crash-%03d.db", k))
		copyFile(t, base, db)
		inj, _, err := runRepairFaulty(t, db, fault.Config{
			Seed:      int64(k),
			TornWrite: k%2 == 0,
		}, k)
		if !inj.Crashed() {
			t.Fatalf("crash at op %d: crash never fired (err: %v)", k, err)
		}
		clean, bad := salvageState(t, db)
		if clean {
			// Success may only be reported past the commit point, where the
			// crash can hit nothing but best-effort free-list cleanup.
			sawNew = true
			if got := xmlOf(t, db); got != expected {
				t.Fatalf("crash at op %d: repaired store diverges from reference", k)
			}
		} else {
			if err == nil {
				t.Fatalf("crash at op %d: repair reported success but the store is still damaged", k)
			}
			sawOld = true
			if len(bad) != 1 || bad[0] != uint32(badPage) {
				t.Fatalf("crash at op %d: bad pages %v, want exactly [%d] — half-switched state", k, bad, badPage)
			}
			// Repair must still complete from here.
			if _, err := axml.RepairFile(db, testCfg(), true, ""); err != nil {
				t.Fatalf("crash at op %d: follow-up repair: %v", k, err)
			}
			if got := xmlOf(t, db); got != expected {
				t.Fatalf("crash at op %d: follow-up repair diverges from reference", k)
			}
		}
	}
	if !sawOld || !sawNew {
		t.Errorf("matrix did not cover both outcomes: old=%v new=%v", sawOld, sawNew)
	}
}

// Crash inside restore at every I/O boundary: the destination must never
// exist afterwards (rename is the one atomic step), and a clean rerun must
// produce the reference image.
func TestRestoreCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "live.db")
	archive := filepath.Join(dir, "segments")

	// A store with archived history: load, back up, then more commits. The
	// padding makes the page file large enough that the log holds several
	// commits, so that after the backup the first commit logs its pages in
	// full and the ones after it as deltas. The insert before the backup
	// splits the loaded range, which rewrites every page.
	s, err := axml.OpenFileWAL(db, testCfg(), archive)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	doc.WriteString("<log>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&doc, `<pad n="%d">padding that fills the page file</pad>`, i)
	}
	doc.WriteString("</log>")
	root, err := axml.LoadXMLString(s, doc.String())
	if err != nil {
		t.Fatal(err)
	}
	split, err := axml.ParseFragment(`<split/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertIntoLast(root, split); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	backup := filepath.Join(dir, "backup.db")
	if _, err := axml.BackupStoreFile(db, backup, testCfg(), false, archive); err != nil {
		t.Fatal(err)
	}
	s, err = axml.ReopenFileWAL(db, testCfg(), archive)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err = s.FirstNodeID()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nightlyScale(2, 8); i++ {
		frag, err := axml.ParseFragment(fmt.Sprintf(`<e n="%d"/>`, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertIntoLast(root, frag); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := recov.ReadBackupMeta(backup)
	if err != nil {
		t.Fatal(err)
	}
	head, err := wal.MaxArchivedLSN(archive)
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	count := func(pagestore.PageID, []byte) error { deltas++; return nil }
	for lsn := meta.LSN + 1; lsn <= head; lsn++ {
		if _, _, err := wal.ReadSegment(filepath.Join(archive, wal.SegmentFileName(lsn)), pgSize, count); err != nil {
			t.Fatal(err)
		}
	}
	if deltas == 0 {
		t.Fatalf("segments %d..%d hold no delta record: the sweep would not replay one", meta.LSN+1, head)
	}

	refDest := filepath.Join(dir, "ref.db")
	if _, err := axml.RestoreFile(backup, refDest, archive, 0); err != nil {
		t.Fatalf("reference restore: %v", err)
	}
	expected := xmlOf(t, refDest)

	restoreWith := func(dest string, inj *fault.Injector) error {
		opt := recov.RestoreOptions{ArchiveDir: archive}
		if inj != nil {
			opt.WrapFile = func(f wal.File) wal.File { return fault.NewFile(inj, f) }
		}
		_, err := recov.Restore(backup, dest, opt)
		return err
	}

	countDest := filepath.Join(dir, "count.db")
	inj := fault.NewInjector(fault.Config{})
	if err := restoreWith(countDest, inj); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	n := inj.Ops()
	if n < 3 {
		t.Fatalf("counting run saw only %d ops", n)
	}
	t.Logf("restore crash matrix: %d I/O boundaries, %d delta records replayed", n, deltas)

	for k := 1; k <= n; k++ {
		dest := filepath.Join(dir, fmt.Sprintf("restore-%03d.db", k))
		inj := fault.NewInjector(fault.Config{Seed: int64(k), CrashAtOp: k, TornWrite: k%2 == 1})
		if err := restoreWith(dest, inj); err == nil {
			t.Fatalf("crash at op %d: restore succeeded, crash never fired", k)
		}
		if _, err := os.Stat(dest); !os.IsNotExist(err) {
			t.Fatalf("crash at op %d: destination exists after failed restore", k)
		}
		if err := restoreWith(dest, nil); err != nil {
			t.Fatalf("crash at op %d: clean rerun: %v", k, err)
		}
		if got := xmlOf(t, dest); got != expected {
			t.Fatalf("crash at op %d: rerun result diverges from reference", k)
		}
	}
}

// Crash a backup at every I/O boundary: the page image and then its .meta
// each go through wal.ReplaceFile, so afterwards either neither file
// exists or both do and restore accepts them — a .meta, which restore and
// PruneArchive trust, never vouches for a backup that is not whole. A
// clean backup to the same destination must then succeed.
func TestBackupCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	db, arch, lsn := buildArchivedStore(t, dir)
	src, err := wal.OpenReadOnly(db, pgSize)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	backup := func(dest string, inj *fault.Injector) error {
		var wrap func(wal.File) wal.File
		if inj != nil {
			wrap = func(f wal.File) wal.File { return fault.NewFile(inj, f) }
		}
		_, err := recov.WriteBackup(src, dest, recov.BackupMeta{PageSize: pgSize, MetaPage: 1, LSN: lsn}, wrap)
		return err
	}
	restored := func(backup, what string) string {
		t.Helper()
		out := backup + ".restored"
		if _, err := axml.RestoreFile(backup, out, arch, 0); err != nil {
			t.Fatalf("%s: restore: %v", what, err)
		}
		defer os.Remove(out)
		return xmlOf(t, out)
	}

	countDest := filepath.Join(dir, "count.bak")
	inj := fault.NewInjector(fault.Config{})
	if err := backup(countDest, inj); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	n := inj.Ops()
	if n < 6 { // page writes, fsync and directory fsync for each file
		t.Fatalf("counting run saw only %d ops", n)
	}
	t.Logf("backup crash matrix: %d I/O boundaries", n)
	expected := restored(countDest, "counting run")

	for k := 1; k <= n; k++ {
		what := fmt.Sprintf("crash at op %d", k)
		dest := filepath.Join(dir, fmt.Sprintf("backup-%03d.bak", k))
		inj := fault.NewInjector(fault.Config{Seed: int64(k), CrashAtOp: k, TornWrite: k%2 == 1})
		if err := backup(dest, inj); err == nil {
			t.Fatalf("%s: backup succeeded, crash never fired", what)
		}
		_, derr := os.Stat(dest)
		_, merr := os.Stat(recov.BackupMetaPath(dest))
		switch {
		case os.IsNotExist(derr) && os.IsNotExist(merr):
		case derr == nil && merr == nil:
			if got := restored(dest, what); got != expected {
				t.Fatalf("%s: backup left in place restores a different document", what)
			}
			continue
		default:
			t.Fatalf("%s: backup %v, sidecar %v — exactly one of the pair exists", what, derr, merr)
		}
		if err := backup(dest, nil); err != nil {
			t.Fatalf("%s: clean rerun: %v", what, err)
		}
		if got := restored(dest, what+", rerun"); got != expected {
			t.Fatalf("%s: rerun restores a different document", what)
		}
	}
}

// failAllocPager fails the failAt-th allocation: a plain error mid-rebuild,
// not a crash — the session survives and closes normally afterwards.
type failAllocPager struct {
	wal.InnerPager
	n, failAt int
}

func (f *failAllocPager) Allocate() (pagestore.PageID, error) {
	f.n++
	if f.n >= f.failAt {
		return pagestore.InvalidPage, errors.New("injected allocate failure")
	}
	return f.InnerPager.Allocate()
}

// MaxPageID forwards the scrub extent so salvage can see the store through
// the wrapper (a hidden extent makes Salvage refuse to scan).
func (f *failAllocPager) MaxPageID() pagestore.PageID {
	if m, ok := f.InnerPager.(interface{ MaxPageID() pagestore.PageID }); ok {
		return m.MaxPageID()
	}
	return pagestore.InvalidPage
}

// A rebuild that fails partway must leave nothing of the half-built
// generation behind: the pending batch is discarded on error, so the
// session's closing commit (which the caller reasonably performs after
// being told the repair failed) writes none of it. The store here is
// sized well past the rebuild's 128-frame scratch pool, so by the time
// the injected failure fires, eviction has already pushed dozens of
// half-generation pages into the journal's pending batch — exactly the
// state a close must not durably commit.
func TestRepairErrorThenCloseLeavesStoreUntouched(t *testing.T) {
	dir := t.TempDir()
	db := buildStore(t, dir, 800)
	_, dataPages := scanRecords(t, db)
	if len(dataPages) < 140 {
		t.Fatalf("store has %d data pages; need >128 so the rebuild evicts mid-flight", len(dataPages))
	}
	corruptPage(t, db, dataPages[len(dataPages)/2])
	before := readDB(t, db)

	// Fail an allocation near the end of the rebuild: past the scratch
	// pool's capacity, after eviction has begun writing back.
	fp := &failAllocPager{failAt: len(dataPages) - 5}
	wp, err := wal.OpenWithOptions(db, pgSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { fp.InnerPager = ip; return fp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := core.RepairPager(wp, 1, true); rerr == nil {
		t.Fatal("repair succeeded despite the injected allocate failure")
	}
	if fp.n <= 128 {
		t.Fatalf("only %d allocations before the failure; the scratch pool never evicted, so the test proves nothing", fp.n)
	}
	// A real Close, not an abandon: it commits whatever is still pending.
	if err := wp.Close(); err != nil {
		t.Fatalf("close after failed repair: %v", err)
	}

	after := readDB(t, db)
	if len(after) < len(before) {
		t.Fatal("store shrank across a failed repair")
	}
	if !bytes.Equal(before, after[:len(before)]) {
		t.Fatal("failed repair durably modified existing pages")
	}
	for i, b := range after[len(before):] {
		if b != 0 {
			t.Fatalf("failed repair left non-zero byte at extension offset %d", i)
		}
	}
	clean, badPages := salvageState(t, db)
	if clean {
		t.Fatal("store reports clean; the corruption should still be there")
	}
	if len(badPages) != 1 || int(badPages[0]) != dataPages[len(dataPages)/2] {
		t.Fatalf("bad pages %v, want exactly the originally corrupted page %d", badPages, dataPages[len(dataPages)/2])
	}

	// The store is still exactly as repairable as before the failed attempt.
	rep, err := axml.RepairFile(db, testCfg(), true, "")
	if err != nil {
		t.Fatalf("follow-up repair: %v", err)
	}
	if !rep.Applied {
		t.Fatal("follow-up repair did not apply")
	}
	if _, err := axml.VerifyFileReport(db, testCfg()); err != nil {
		t.Errorf("verify after follow-up repair: %v", err)
	}
}

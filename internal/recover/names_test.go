// The name dictionary through every copy a store makes of itself: reopen,
// read-only reopen, backup and restore, point-in-time restore — and salvage
// with either of the dictionary's two copies lost.
package recover_test

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	axml "repro"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/wal"
)

// dictRecordPage returns the page holding the dictionary's chain record:
// the range record with range id 0.
func dictRecordPage(t *testing.T, db string) int {
	t.Helper()
	data := readDB(t, db)
	for pg := 1; (pg+1)*pgSize <= len(data); pg++ {
		info := pagestore.InspectPage(data[pg*pgSize : (pg+1)*pgSize])
		if info.Kind != pagestore.KindData || info.Err != nil {
			continue
		}
		for _, r := range info.Records {
			ref, err := pagestore.DecodeStored(r.Stored)
			if err == nil && ref.Inline && len(ref.Data) >= 4 && binary.LittleEndian.Uint32(ref.Data) == 0 {
				return pg
			}
		}
	}
	t.Fatal("no dictionary record in the store")
	return 0
}

// With the page that holds the dictionary's chain copy destroyed, the meta
// page's copy names everything: only the ranges that shared the page are
// lost, and the rebuilt store has both copies again.
func TestRepairLostDictionaryRecord(t *testing.T) {
	dir := t.TempDir()
	const frags = 40
	db := buildStore(t, dir, frags)
	victim := dictRecordPage(t, db)
	recs, _ := scanRecords(t, db)
	var expectLost []axml.Interval
	var survivors []int
	for i, r := range recs {
		if r.page == victim {
			expectLost = append(expectLost, axml.Interval{Start: r.start, End: r.end})
		} else {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		t.Fatal("every range shares the dictionary's page; the test needs survivors")
	}
	corruptPage(t, db, victim)

	rep, err := axml.RepairFile(db, testCfg(), true, "")
	if err != nil {
		t.Fatalf("repair -apply: %v", err)
	}
	if !rep.Applied {
		t.Fatal("repair did not apply a rebuild")
	}
	if got, want := fmt.Sprint(rep.Missing), fmt.Sprint(mergeIntervals(expectLost)); got != want {
		t.Errorf("lost intervals:\n  got  %s\n  want %s", got, want)
	}
	if rep.Salvaged != len(survivors) {
		t.Errorf("salvaged %d records, want %d", rep.Salvaged, len(survivors))
	}
	want, err := axml.Open(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	for _, i := range survivors {
		frag, err := axml.ParseFragment(fragXML(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.Append(frag); err != nil {
			t.Fatal(err)
		}
	}
	wantXML, err := want.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if got := xmlOf(t, db); got != wantXML {
		t.Errorf("repaired document:\n  got  %q\n  want %q", got, wantXML)
	}
	// The rebuild wrote the chain copy back: losing the meta page now
	// loses nothing more (the ids lost before stay missing).
	dictRecordPage(t, db)
	zeroPage(t, db, 1)
	if rep2, err := axml.RepairFile(db, testCfg(), true, ""); err != nil || fmt.Sprint(rep2.Missing) != fmt.Sprint(rep.Missing) {
		t.Fatalf("second repair: %v, missing %v, want %v", err, rep2.Missing, rep.Missing)
	}
	if got := xmlOf(t, db); got != wantXML {
		t.Errorf("document after the meta page went too:\n  got  %q\n  want %q", got, wantXML)
	}
}

// TestNamesSurviveEveryCopy: a journaled, archived store whose commits keep
// bringing names it has not seen reads back the same through reopen,
// read-only reopen, a backup restored as-is, and a point-in-time restore to
// each commit after a base backup taken before any of those names existed.
func TestNamesSurviveEveryCopy(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "live.db")
	archive := filepath.Join(dir, "segments")
	wp, err := wal.OpenWithOptions(db, pgSize, wal.Options{ArchiveDir: archive})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Pager = wp
	s, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root, err := axml.LoadXMLString(s, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base.db")
	if _, err := s.BackupTo(base); err != nil {
		t.Fatal(err)
	}

	type snap struct {
		lsn   uint64
		xml   string
		names int
	}
	var snaps []snap
	for i := 0; i < 6; i++ {
		frag, err := axml.ParseFragment(fmt.Sprintf(`<entry%d kind%d="k"><body%d>text %d</body%d></entry%d>`, i, i, i, i, i, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertIntoLast(root, frag); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		xml, err := s.XMLString()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{lsn: wp.LSN(), xml: xml, names: s.Stats().NameIDs})
	}
	last := snaps[len(snaps)-1]
	if last.names != 1+3*6 {
		t.Fatalf("NameIDs = %d, want %d", last.names, 1+3*6)
	}
	full := filepath.Join(dir, "full.db")
	if _, err := s.BackupTo(full); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(what string, s *core.Store, want snap) {
		t.Helper()
		defer s.Close()
		if got, err := s.XMLString(); err != nil || got != want.xml {
			t.Fatalf("%s: document %q (%v), want %q", what, got, err, want.xml)
		}
		if got := s.Stats().NameIDs; got != want.names {
			t.Fatalf("%s: NameIDs = %d, want %d", what, got, want.names)
		}
	}
	open := func(what string, open func(string, axml.Config) (*core.Store, error), path string, want snap) {
		t.Helper()
		s, err := open(path, testCfg())
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what, s, want)
	}
	open("reopen", axml.ReopenFile, db, last)
	open("read-only reopen", axml.ReopenFileReadOnly, db, last)

	restored := filepath.Join(dir, "restored.db")
	if _, err := axml.RestoreFile(full, restored, "", 0); err != nil {
		t.Fatal(err)
	}
	open("backup restored as-is", axml.ReopenFile, restored, last)

	for i, sn := range snaps {
		dest := filepath.Join(dir, fmt.Sprintf("pitr-%d.db", i))
		if _, err := axml.RestoreFile(base, dest, archive, sn.lsn); err != nil {
			t.Fatalf("restore to LSN %d: %v", sn.lsn, err)
		}
		open(fmt.Sprintf("restore to LSN %d", sn.lsn), axml.ReopenFile, dest, sn)
		if _, err := axml.VerifyFileReport(dest, testCfg()); err != nil {
			t.Errorf("restore to LSN %d: verify: %v", sn.lsn, err)
		}
	}
}

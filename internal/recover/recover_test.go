// End-to-end salvage and rebuild tests, driven through the public axml
// wrappers the CLI uses. The acceptance scenario: corrupt N random
// non-adjacent pages of a store, repair it, and demand that every range
// not hit survives, that the lost node-id intervals are reported exactly,
// and that the repaired store verifies clean.
package recover_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	axml "repro"
	"repro/internal/pagestore"
)

const pgSize = 512

// nightlyScale widens a workload in the nightly CI profile (AXML_NIGHTLY).
func nightlyScale(normal, nightly int) int {
	if os.Getenv("AXML_NIGHTLY") != "" {
		return nightly
	}
	return normal
}

func testCfg() axml.Config {
	return axml.Config{Mode: axml.RangeOnly, PageSize: pgSize}
}

// fragXML returns the i-th test fragment. Each one becomes exactly one
// range (MaxRangeTokens 0), so one record on disk.
func fragXML(i int) string {
	return fmt.Sprintf(`<r id="%d"><v>item number %d of the salvage corpus</v></r>`, i, i)
}

// buildStore creates a store file of n independently-appended fragments
// and returns its path. Sequential appends give ascending, contiguous
// node ids — fragment order and id order coincide.
func buildStore(t *testing.T, dir string, n int) string {
	t.Helper()
	db := filepath.Join(dir, "store.db")
	s, err := axml.OpenFile(db, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		frag, err := axml.ParseFragment(fragXML(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(frag); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return db
}

// rec is one range record located by a raw page scan: which page holds it
// and which node-id interval it covers.
type rec struct {
	page       int
	start, end uint64
}

// scanRecords raw-reads the store file and returns every range record with
// its page and id interval, sorted by start id (= fragment order), plus
// the sorted list of data pages. This reimplements just enough of the
// record layout (rangeID u32 | startID u64 | nodes u32 | ...) to keep the
// test independent of the salvage code it is checking.
func scanRecords(t *testing.T, db string) ([]rec, []int) {
	t.Helper()
	data, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	var recs []rec
	var dataPages []int
	for pg := 1; (pg+1)*pgSize <= len(data); pg++ {
		info := pagestore.InspectPage(data[pg*pgSize : (pg+1)*pgSize])
		if info.Kind != pagestore.KindData || info.Err != nil {
			continue
		}
		dataPages = append(dataPages, pg)
		for _, r := range info.Records {
			ref, err := pagestore.DecodeStored(r.Stored)
			if err != nil {
				t.Fatalf("page %d: undecodable record: %v", pg, err)
			}
			if !ref.Inline {
				t.Fatalf("page %d: unexpected overflow record in small-fragment store", pg)
			}
			if len(ref.Data) < 20 {
				t.Fatalf("page %d: short range record (%d bytes)", pg, len(ref.Data))
			}
			start := binary.LittleEndian.Uint64(ref.Data[4:12])
			nodes := binary.LittleEndian.Uint32(ref.Data[12:16])
			if nodes == 0 {
				continue
			}
			recs = append(recs, rec{page: pg, start: start, end: start + uint64(nodes) - 1})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	return recs, dataPages
}

// corruptPage flips a byte in the page body (not the checksum trailer).
func corruptPage(t *testing.T, db string, pg int) {
	t.Helper()
	f, err := os.OpenFile(db, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(pg)*pgSize + 60
	buf := []byte{0}
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x5a
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
}

func xmlOf(t *testing.T, db string) string {
	t.Helper()
	s, err := axml.ReopenFile(db, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	xml, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	return xml
}

// mergeIntervals collapses sorted id intervals, joining adjacent ones the
// way the salvage report does.
func mergeIntervals(ivs []axml.Interval) []axml.Interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var out []axml.Interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End+1 {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// The headline acceptance test: corrupt several non-adjacent pages, repair,
// and check the survivors, the reported losses, and the final verify.
func TestRepairCorruptPages(t *testing.T) {
	dir := t.TempDir()
	const frags = 40
	db := buildStore(t, dir, frags)
	recs, dataPages := scanRecords(t, db)
	if len(recs) != frags {
		t.Fatalf("raw scan found %d records, want %d", len(recs), frags)
	}
	if len(dataPages) < 5 {
		t.Fatalf("only %d data pages; store too small for a multi-page corruption test", len(dataPages))
	}

	// Pick non-adjacent victims: the 2nd and 4th data page.
	victims := map[int]bool{dataPages[1]: true, dataPages[3]: true}
	var expectLost []axml.Interval
	var survivors []int // fragment indexes, in order
	for i, r := range recs {
		if victims[r.page] {
			expectLost = append(expectLost, axml.Interval{Start: r.start, End: r.end})
		} else {
			survivors = append(survivors, i)
		}
	}
	expectLost = mergeIntervals(expectLost)
	if len(expectLost) < 2 {
		t.Fatalf("victim pages did not yield two disjoint lost intervals: %+v", expectLost)
	}
	for pg := range victims {
		corruptPage(t, db, pg)
	}

	// Dry run first: reports the damage, changes nothing.
	dry, err := axml.RepairFile(db, testCfg(), false, "")
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if dry.Clean || dry.Applied {
		t.Fatalf("dry run on corrupt store: clean=%v applied=%v", dry.Clean, dry.Applied)
	}
	if _, err := axml.VerifyFileReport(db, testCfg()); err == nil {
		t.Fatal("store verifies clean after a dry run found damage")
	}

	rep, err := axml.RepairFile(db, testCfg(), true, "")
	if err != nil {
		t.Fatalf("repair -apply: %v", err)
	}
	if !rep.Applied {
		t.Fatal("repair did not apply a rebuild")
	}
	if len(rep.BadPages) != len(victims) {
		t.Errorf("reported %d bad pages, corrupted %d", len(rep.BadPages), len(victims))
	}
	if got, want := fmt.Sprint(rep.Missing), fmt.Sprint(expectLost); got != want {
		t.Errorf("lost intervals:\n  got  %s\n  want %s", got, want)
	}
	if rep.Salvaged != len(survivors) {
		t.Errorf("salvaged %d records, want %d", rep.Salvaged, len(survivors))
	}

	if _, err := axml.VerifyFileReport(db, testCfg()); err != nil {
		t.Errorf("verify after repair: %v", err)
	}

	// The repaired document must be exactly the surviving fragments in
	// order — compare against a store built from only those fragments.
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
}

func readDB(t *testing.T, db string) []byte {
	t.Helper()
	b, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Repair must be idempotent: on a clean store it is a byte-level no-op,
// and a second repair after a real one changes nothing further.
func TestRepairIdempotence(t *testing.T) {
	dir := t.TempDir()
	db := buildStore(t, dir, 12)

	before := readDB(t, db)
	rep, err := axml.RepairFile(db, testCfg(), true, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Applied {
		t.Fatalf("repair of clean store: clean=%v applied=%v", rep.Clean, rep.Applied)
	}
	if !bytes.Equal(before, readDB(t, db)) {
		t.Error("repairing a clean store changed the file")
	}

	_, dataPages := scanRecords(t, db)
	corruptPage(t, db, dataPages[len(dataPages)/2])
	if _, err := axml.RepairFile(db, testCfg(), true, ""); err != nil {
		t.Fatal(err)
	}
	afterFirst := readDB(t, db)

	rep2, err := axml.RepairFile(db, testCfg(), true, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean || rep2.Applied {
		t.Fatalf("second repair: clean=%v applied=%v, want a no-op", rep2.Clean, rep2.Applied)
	}
	if !bytes.Equal(afterFirst, readDB(t, db)) {
		t.Error("second repair changed the already-repaired file")
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Sync(); err != nil {
		t.Fatal(err)
	}
}

// zeroPage overwrites page pg with zeros, as a lost write or a wiped sector
// would leave it.
func zeroPage(t *testing.T, db string, pg int) {
	t.Helper()
	f, err := os.OpenFile(db, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, pgSize), int64(pg)*pgSize); err != nil {
		t.Fatal(err)
	}
}

// A store whose meta page is lost keeps every name it uses: salvage takes
// the chain head from the data pages and the names from the dictionary's
// copy in the chain, and the rebuilt store reads back byte for byte.
func TestRepairLostMetaPage(t *testing.T) {
	dir := t.TempDir()
	const frags = 40
	db := buildStore(t, dir, frags)
	want := xmlOf(t, db)
	zeroPage(t, db, 1) // the meta page

	rep, err := axml.RepairFile(db, testCfg(), true, "")
	if err != nil {
		t.Fatalf("repair -apply: %v", err)
	}
	if !rep.Applied || len(rep.Missing) != 0 || rep.Lost != 0 {
		t.Fatalf("repair: applied=%v missing=%v lost=%d notes=%v", rep.Applied, rep.Missing, rep.Lost, rep.Notes)
	}
	if rep.Salvaged != frags {
		t.Errorf("salvaged %d records, want %d", rep.Salvaged, frags)
	}
	if _, err := axml.VerifyFileReport(db, testCfg()); err != nil {
		t.Errorf("verify after repair: %v", err)
	}
	if got := xmlOf(t, db); got != want {
		t.Errorf("repaired document:\n  got  %q\n  want %q", got, want)
	}
}

package axml

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// crashedJournaledStore builds a journaled store large enough that commits
// wait in the log, acknowledges n single-order inserts, and "crashes" it: no
// close, no checkpoint. The page file holds none of the n; the sidecar log
// holds all of them.
func crashedJournaledStore(t *testing.T, n int) (path string, base int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "store.db")
	wp, err := wal.Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Mode: RangePartial, PageSize: 512, Pager: wp, MaxRangeTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	base = 4000
	var b strings.Builder
	b.WriteString("<orders>")
	for i := 0; i < base; i++ {
		fmt.Fprintf(&b, `<order id="%d"><item>part-%d</item></order>`, i, i)
	}
	b.WriteString("</orders>")
	if _, err := LoadXMLString(s, b.String()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		anchor, ok, err := QueryFirst(s, fmt.Sprintf(`/orders/order[@id="%d"]`, (i+1)*base/(n+1)))
		if err != nil || !ok {
			t.Fatalf("no anchor: %v", err)
		}
		frag, err := ParseFragment(fmt.Sprintf(`<order id="acked-%d"><item>widget</item></order>`, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertAfter(anchor, frag); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.WALCheckpoints != 1 || st.WALLogBytes == 0 {
		t.Fatalf("the %d commits must still be in the log: %d checkpoints, %d log bytes", n, st.WALCheckpoints, st.WALLogBytes)
	}
	if err := wp.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	return path, base
}

// Every way of reading a store without opening it for writing must see the
// commits that were acknowledged but not yet checkpointed when the process
// died: the read-only open, both verifiers, and the shared-lock backup. None
// of them may touch the page file or the log.
func TestReadOnlyOpensSeeUncheckpointedCommits(t *testing.T) {
	const n = 3
	path, base := crashedJournaledStore(t, n)
	cfg := Config{Mode: RangePartial, PageSize: 512, ReadOnly: true}
	want := strconv.Itoa(base + n)
	dbBefore, _ := os.ReadFile(path)
	walBefore, _ := os.ReadFile(path + ".wal")

	ro, err := ReopenFileReadOnly(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := QueryValue(ro, `count(//order)`); err != nil || got != want {
		t.Fatalf("read-only open sees %s orders (err %v), %s were acknowledged", got, err, want)
	}
	if err := ro.Verify(); err != nil {
		t.Fatalf("verify through the read-only open: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(path, cfg); err != nil {
		t.Fatalf("VerifyFile read-only: %v", err)
	}
	if rep, err := VerifyFileReport(path, cfg); err != nil || !rep.Clean {
		t.Fatalf("VerifyFileReport read-only: %v", err)
	}

	backup := filepath.Join(t.TempDir(), "backup.db")
	if _, err := BackupStoreFile(path, backup, cfg, true, ""); err != nil {
		t.Fatal(err)
	}
	bs, err := ReopenFileReadOnly(backup, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := QueryValue(bs, `count(//order)`); err != nil || got != want {
		t.Fatalf("shared backup holds %s orders (err %v), want %s", got, err, want)
	}
	bs.Close()

	dbAfter, _ := os.ReadFile(path)
	walAfter, _ := os.ReadFile(path + ".wal")
	if string(dbBefore) != string(dbAfter) || string(walBefore) != string(walAfter) {
		t.Fatal("a read-only pass modified the store files")
	}

	// The writable verifier replays the log first, then sees the same.
	if err := VerifyFile(path, Config{Mode: RangePartial, PageSize: 512}); err != nil {
		t.Fatalf("VerifyFile writable: %v", err)
	}
	rw, err := ReopenFile(path, Config{Mode: RangePartial, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if got, err := QueryValue(rw, `count(//order)`); err != nil || got != want {
		t.Fatalf("after replay the store holds %s orders (err %v), want %s", got, err, want)
	}
}

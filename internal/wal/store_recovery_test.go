package wal_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/wal"
	"repro/internal/xmltok"
)

// End-to-end: the XML store on a journaled pager survives a crash between
// flushes with the last flushed state intact. Lives in an external test
// package: it pulls in core, which depends on the recovery layer, which
// depends on this package.
func TestStoreCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	jp, err := wal.Open(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Mode: core.RangeOnly, PageSize: 2048, Pager: jp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(xmltok.MustParse(`<doc><stable/></doc>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // durable point
		t.Fatal(err)
	}
	want, _ := s.XMLString()
	// More work after the flush...
	if _, err := s.InsertIntoLast(1, xmltok.MustParseFragment(`<lost/>`)); err != nil {
		t.Fatal(err)
	}
	// ...then crash: no flush, no commit.
	jp.CloseWithoutCommit()

	jp2, err := wal.Open(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Reopen(core.Config{Mode: core.RangeOnly, PageSize: 2048}, jp2, pagestore.PageID(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after crash:\n got %s\nwant %s", got, want)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The recovered store accepts new work.
	if _, err := s2.InsertIntoLast(1, xmltok.MustParseFragment(`<recovered/>`)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
}

// A delete-heavy, coalescing workload frees pages whose committed images are
// still waiting in the overlay, across several checkpoints. No checkpoint may
// trip over a freed page, and a crash with batches still in the log must
// reopen to exactly the acknowledged state — the replayed images of freed
// pages land in slots nothing references.
func TestFreedPagesBetweenCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	jp, err := wal.Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.RangePartial, PageSize: 512, MaxRangeTokens: 64, CoalesceBytes: 1024}
	cfg.Pager = jp
	s, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Open(core.Config{Mode: core.RangePartial, PageSize: 512, MaxRangeTokens: 64, CoalesceBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var doc strings.Builder
	doc.WriteString("<orders>")
	const orders = 3000
	for i := 0; i < orders; i++ {
		fmt.Fprintf(&doc, `<order id="%d"><item>part-%d</item></order>`, i, i)
	}
	doc.WriteString("</orders>")
	for _, st := range []*core.Store{s, ref} {
		if _, err := st.Append(xmltok.MustParse(doc.String())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pagesBefore := jp.PageCount()

	// Order i's element is node 2+4i (element, attribute, item, text): delete
	// runs of neighbouring orders so whole ranges empty out and merge.
	deleted := 0
	for i := 100; i < orders-100; i++ {
		if i%40 >= 30 {
			continue
		}
		id := core.NodeID(2 + 4*i)
		for _, st := range []*core.Store{s, ref} {
			if err := st.DeleteNode(id); err != nil {
				t.Fatalf("delete order %d: %v", i, err)
			}
		}
		deleted++
		if deleted%5 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.WALCheckpoints < 3 {
		t.Fatalf("only %d checkpoints: the workload must span several", st.WALCheckpoints)
	}
	if freed := pagesBefore - jp.PageCount(); freed < 20 {
		t.Fatalf("only %d pages freed: the workload must free pages between checkpoints", freed)
	}
	if st.WALLogBytes == 0 {
		// Leave at least one batch unapplied for the crash to matter.
		if err := s.DeleteNode(core.NodeID(2 + 4*10)); err != nil {
			t.Fatal(err)
		}
		if err := ref.DeleteNode(core.NodeID(2 + 4*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := ref.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	jp.CloseWithoutCommit()

	jp2, err := wal.Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Reopen(core.Config{Mode: core.RangePartial, PageSize: 512}, jp2, pagestore.PageID(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Verify(); err != nil {
		t.Fatalf("verify after crash: %v", err)
	}
	got, err := s2.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("reopened store differs from the acknowledged state")
	}
}

// gatedLog parks one log fsync — the next after arm is set — until release
// is closed, announcing it on started: a test can then act while a commit's
// leader sits in its fsync, outside every lock.
type gatedLog struct {
	wal.File
	arm              *atomic.Bool
	started, release chan struct{}
}

func (f gatedLog) Sync() error {
	if f.arm.CompareAndSwap(true, false) {
		close(f.started)
		<-f.release
	}
	return f.File.Sync()
}

func ordersXML(from, n int) string {
	var b strings.Builder
	for i := from; i < from+n; i++ {
		fmt.Fprintf(&b, `<order id="%d"><item>part-%d</item></order>`, i, i)
	}
	return b.String()
}

// Two writers. B's flush is acknowledged while A is in the middle of a
// delete: B's leader runs its due checkpoint outside the store lock, at a
// moment when A has freed pages — pages whose only up-to-date images are the
// ones B just committed — and has not flushed. A's frees are not committed,
// so the checkpoint must write those images before truncating the log: a
// crash right after B's acknowledgement reopens to B's state, whole.
func TestDeleteRacingDueCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	gate := gatedLog{arm: new(atomic.Bool), started: make(chan struct{}), release: make(chan struct{})}
	jp, err := wal.OpenWithOptions(path, 512, wal.Options{
		WrapLog: func(f wal.File) wal.File { gate.File = f; return gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.RangePartial, PageSize: 512, MaxRangeTokens: 64, CoalesceBytes: 1024}
	ref, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	cfg.Pager = jp
	s, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const base, added = 1000, 300
	doc := xmltok.MustParse("<orders>" + ordersXML(0, base) + "</orders>")
	for _, st := range []*core.Store{s, ref} {
		if _, err := st.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Writer B's insert: a run of orders at the end of the root, a batch big
	// enough to make a checkpoint due.
	var first core.NodeID
	for _, st := range []*core.Store{s, ref} {
		if first, err = st.InsertIntoLast(1, xmltok.MustParseFragment(ordersXML(base, added))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	before, pagesBefore := s.Stats(), jp.PageCount()

	gate.arm.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	<-gate.started // B's batch is staged; its leader is in the log fsync

	// Writer A deletes most of what B inserted, emptying and merging ranges:
	// the pages it frees have their newest images in B's batch.
	for j := 20; j < added-20; j++ {
		if err := s.DeleteNode(first + core.NodeID(4*j)); err != nil {
			t.Fatalf("delete order %d: %v", base+j, err)
		}
	}
	if freed := pagesBefore - jp.PageCount(); freed < 10 {
		t.Fatalf("only %d pages freed: the deletes must free pages B's batch wrote", freed)
	}
	close(gate.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	wal.WaitCheckpoint(jp)
	if st := s.Stats(); st.WALCheckpoints != before.WALCheckpoints+1 || st.WALLogBytes != 0 {
		t.Fatalf("%d checkpoints (%d before, %d failed), %d log bytes: B's commit must have run the due checkpoint",
			st.WALCheckpoints, before.WALCheckpoints, st.WALCheckpointFailures, st.WALLogBytes)
	}
	jp.CloseWithoutCommit() // A never flushes

	jp2, err := wal.Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Reopen(core.Config{Mode: core.RangePartial, PageSize: 512}, jp2, pagestore.PageID(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Verify(); err != nil {
		t.Fatalf("verify after crash: %v", err)
	}
	got, err := s2.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("reopened store differs from the state B was acknowledged")
	}
}

// Follower behavior end to end: tailing a live primary, resuming across
// restarts, bounded-staleness read gates, stalling on gaps and corruption
// (stale, never wrong), and promotion with the PITR history intact.
package replica_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/replica"
	"repro/internal/wal"
)

const pgSize = 512

func testCfg() core.Config {
	return core.Config{Mode: core.RangeOnly, PageSize: pgSize}
}

// primary is a writer with a segment archive: the source of a replication
// stream.
type primary struct {
	t    *testing.T
	db   string
	arch string
	wp   *wal.Pager
	s    *core.Store
	root core.NodeID
	n    int
}

func newPrimary(t *testing.T, dir string) *primary { return newPaddedPrimary(t, dir, 0) }

// newPaddedPrimary is newPrimary with pad elements loaded ahead of the log:
// enough of them make the page file large enough that the log holds several
// commits between checkpoints, and their pages log as deltas.
func newPaddedPrimary(t *testing.T, dir string, pad int) *primary {
	t.Helper()
	p := &primary{
		t:    t,
		db:   filepath.Join(dir, "primary.db"),
		arch: filepath.Join(dir, "primary-segments"),
	}
	wp, err := wal.OpenWithOptions(p.db, pgSize, wal.Options{ArchiveDir: p.arch})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.Pager = wp
	s, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	doc.WriteString("<log>")
	for i := 0; i < pad; i++ {
		fmt.Fprintf(&doc, `<pad n="%d">padding that fills the page file</pad>`, i)
	}
	doc.WriteString("</log>")
	root, err := axml.LoadXMLString(s, doc.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	p.wp, p.s, p.root = wp, s, root
	return p
}

// commit inserts one element and commits; returns the commit's LSN.
func (p *primary) commit() uint64 {
	p.t.Helper()
	frag, err := axml.ParseFragment(fmt.Sprintf(`<e n="%d"/>`, p.n))
	if err != nil {
		p.t.Fatal(err)
	}
	p.n++
	if _, err := p.s.InsertIntoLast(p.root, frag); err != nil {
		p.t.Fatal(err)
	}
	if err := p.s.Flush(); err != nil {
		p.t.Fatal(err)
	}
	return p.wp.LSN()
}

func (p *primary) xml() string {
	p.t.Helper()
	x, err := p.s.XMLString()
	if err != nil {
		p.t.Fatal(err)
	}
	return x
}

// backup takes a roll-forward-capable backup of the live primary through
// the store's own online-backup entry point (an out-of-process copier
// would conflict with the in-process flock).
func (p *primary) backup(path string) recov.BackupMeta {
	p.t.Helper()
	if _, err := p.s.BackupTo(path); err != nil {
		p.t.Fatal(err)
	}
	meta, err := recov.ReadBackupMeta(path)
	if err != nil {
		p.t.Fatal(err)
	}
	return meta
}

func (p *primary) close() {
	p.t.Helper()
	if err := p.s.Close(); err != nil {
		p.t.Fatal(err)
	}
}

// followerXML reads the follower's whole document through the gated read
// path (ungated: stale is fine, wrong is not).
func followerXML(t *testing.T, f *replica.Follower) string {
	t.Helper()
	var x string
	if err := f.Read(replica.ReadOptions{}, func(s *core.Store) error {
		var err error
		x, err = s.XMLString()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return x
}

func catchUp(t *testing.T, f *replica.Follower) {
	t.Helper()
	if err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerTailsPrimary pins the core loop: bootstrap from a backup,
// catch up with live commits, serve the exact committed document, report
// position.
func TestFollowerTailsPrimary(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	p.commit()
	base := filepath.Join(dir, "base.bak")
	meta := p.backup(base)

	f, err := replica.Open(filepath.Join(dir, "follower.db"),
		replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// The follower serves the backup's state before any catch-up.
	if st := f.Stats(); st.AppliedLSN != meta.LSN || st.BaseLSN != meta.LSN {
		t.Fatalf("fresh follower at LSN %d (base %d), want both %d", st.AppliedLSN, st.BaseLSN, meta.LSN)
	}

	var lastLSN uint64
	for i := 0; i < 5; i++ {
		lastLSN = p.commit()
	}
	want := p.xml()
	catchUp(t, f)

	st := f.Stats()
	if st.AppliedLSN != lastLSN {
		t.Fatalf("applied LSN %d, want %d", st.AppliedLSN, lastLSN)
	}
	if st.LagSegments != 0 || st.LagBytes != 0 {
		t.Fatalf("caught-up follower reports lag %d segment(s) / %d bytes", st.LagSegments, st.LagBytes)
	}
	if st.SegmentsApplied == 0 || st.BytesApplied == 0 {
		t.Fatal("apply counters did not move")
	}
	if got := followerXML(t, f); got != want {
		t.Fatalf("follower document differs from primary:\n got %s\nwant %s", got, want)
	}

	// Lag is visible between polls.
	p.commit()
	p.commit()
	segs, err := f.Stats(), error(nil)
	_ = segs
	if err != nil {
		t.Fatal(err)
	}
	catchUp(t, f)
	if got, want := followerXML(t, f), p.xml(); got != want {
		t.Fatal("follower did not converge after more commits")
	}
}

// TestFollowerLearnsNewNames: commits that bring names the base backup never
// saw carry them to the follower with the pages that use them — the name
// dictionary rides the meta page in the same segment.
func TestFollowerLearnsNewNames(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)
	f, err := replica.Open(filepath.Join(dir, "follower.db"),
		replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		frag, err := axml.ParseFragment(fmt.Sprintf(`<item%d sku%d="s"><qty%d>%d</qty%d></item%d>`, i, i, i, i, i, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.s.InsertIntoLast(p.root, frag); err != nil {
			t.Fatal(err)
		}
		if err := p.s.Flush(); err != nil {
			t.Fatal(err)
		}
		catchUp(t, f)
		if got, want := followerXML(t, f), p.xml(); got != want {
			t.Fatalf("after commit %d the follower reads\n got %s\nwant %s", i, got, want)
		}
	}
	var names int
	if err := f.Read(replica.ReadOptions{}, func(s *core.Store) error {
		names = s.Stats().NameIDs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := p.s.Stats().NameIDs; names != want || want < 12 {
		t.Fatalf("follower holds %d names, primary %d (want at least 12)", names, want)
	}
}

// TestFollowerResumesAcrossReopen pins the durable position: a closed
// follower reopens without a base and picks up exactly where it stopped.
func TestFollowerResumesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)

	db := filepath.Join(dir, "follower.db")
	tr := func() replica.Transport {
		return replica.NewDirTransport(p.arch, replica.DirTransportOptions{})
	}
	f, err := replica.Open(db, tr(), replica.Options{Store: testCfg(), Base: base})
	if err != nil {
		t.Fatal(err)
	}
	p.commit()
	catchUp(t, f)
	applied := f.Stats().AppliedLSN
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// More history lands while the follower is down.
	for i := 0; i < 3; i++ {
		p.commit()
	}
	want := p.xml()

	// No Base on resume: the sidecar is the authority.
	f2, err := replica.Open(db, tr(), replica.Options{Store: testCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if st := f2.Stats(); st.AppliedLSN != applied {
		t.Fatalf("resumed at LSN %d, want %d", st.AppliedLSN, applied)
	}
	catchUp(t, f2)
	if got := followerXML(t, f2); got != want {
		t.Fatal("resumed follower did not converge")
	}

	// A store with no sidecar and no base is refused with the typed error.
	if _, err := replica.Open(filepath.Join(dir, "nothing.db"), tr(), replica.Options{Store: testCfg()}); !errors.Is(err, replica.ErrNotBootstrapped) {
		t.Fatalf("open without sidecar or base: err = %v, want ErrNotBootstrapped", err)
	}
}

// TestReadGates pins the bounded-staleness contract: MinLSN and
// MaxStaleness shed with ErrTooStale instead of serving data the follower
// cannot vouch for.
func TestReadGates(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)

	f, err := replica.Open(filepath.Join(dir, "follower.db"),
		replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	lsn := p.commit()
	// The follower has not applied lsn yet: a read-your-writes gate sheds.
	err = f.Read(replica.ReadOptions{MinLSN: lsn}, func(*core.Store) error { return nil })
	if !errors.Is(err, replica.ErrTooStale) {
		t.Fatalf("MinLSN ahead of applied: err = %v, want ErrTooStale", err)
	}
	catchUp(t, f)
	if err := f.Read(replica.ReadOptions{MinLSN: lsn}, func(*core.Store) error { return nil }); err != nil {
		t.Fatalf("MinLSN at applied: %v", err)
	}

	// Freshness: a just-polled follower satisfies a generous bound...
	if err := f.Read(replica.ReadOptions{MaxStaleness: time.Minute}, func(*core.Store) error { return nil }); err != nil {
		t.Fatalf("fresh read: %v", err)
	}
	// ...and an impossible bound sheds once the clock moves.
	time.Sleep(2 * time.Millisecond)
	err = f.Read(replica.ReadOptions{MaxStaleness: time.Nanosecond}, func(*core.Store) error { return nil })
	if !errors.Is(err, replica.ErrTooStale) {
		t.Fatalf("stale read: err = %v, want ErrTooStale", err)
	}
}

// TestFollowerStallsOnGap pins "stale, never wrong": history pruned from
// under the follower stalls it (reads keep serving the applied state), and
// Resume retries after the operator re-ships the segment.
func TestFollowerStallsOnGap(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)

	f, err := replica.Open(filepath.Join(dir, "follower.db"),
		replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, f)
	served := followerXML(t, f)
	applied := f.Stats().AppliedLSN

	// Three more commits; the first of them vanishes (pruned).
	gapLSN := p.commit()
	p.commit()
	p.commit()
	gapFile := filepath.Join(p.arch, wal.SegmentFileName(gapLSN))
	gapBytes, err := os.ReadFile(gapFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(gapFile); err != nil {
		t.Fatal(err)
	}

	cerr := f.CatchUp(context.Background())
	if !errors.Is(cerr, replica.ErrReplicaStalled) {
		t.Fatalf("catch-up across a gap: err = %v, want ErrReplicaStalled", cerr)
	}
	st := f.Stats()
	if !st.Stalled || st.StallCause == "" {
		t.Fatalf("Stats after gap: stalled=%v cause=%q", st.Stalled, st.StallCause)
	}
	if st.AppliedLSN != applied {
		t.Fatalf("stalled follower moved from LSN %d to %d", applied, st.AppliedLSN)
	}
	// Stalled is sticky: the next pass refuses without re-probing.
	if err := f.CatchUp(context.Background()); !errors.Is(err, replica.ErrReplicaStalled) {
		t.Fatalf("stall not sticky: %v", err)
	}
	// Reads still serve the applied state; a MinLSN past the stall sheds
	// with both typed conditions visible.
	if got := followerXML(t, f); got != served {
		t.Fatal("stalled follower changed its served document")
	}
	err = f.Read(replica.ReadOptions{MinLSN: gapLSN}, func(*core.Store) error { return nil })
	if !errors.Is(err, replica.ErrTooStale) || !errors.Is(err, replica.ErrReplicaStalled) {
		t.Fatalf("gated read on a stalled follower: %v", err)
	}

	// Operator re-ships the segment and resumes.
	if err := os.WriteFile(gapFile, gapBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	f.Resume()
	catchUp(t, f)
	if got, want := followerXML(t, f), p.xml(); got != want {
		t.Fatal("follower did not converge after Resume")
	}
	if st := f.Stats(); st.Stalled {
		t.Fatal("follower still stalled after convergence")
	}
}

// TestFollowerStallsOnCorruptSegment pins the validation path: a segment
// whose bytes fail CRC with later history present is final damage (stall),
// while the same failure on the newest segment is a transient tail.
func TestFollowerStallsOnCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)

	f, err := replica.Open(filepath.Join(dir, "follower.db"),
		replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base, FetchRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, f)

	// Corrupt the NEWEST segment: the follower must treat it as a tail
	// still being shipped — an error, not a stall.
	tailLSN := p.commit()
	tailFile := filepath.Join(p.arch, wal.SegmentFileName(tailLSN))
	good, err := os.ReadFile(tailFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tailFile, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(context.Background()); err == nil {
		t.Fatal("catch-up applied a torn newest segment")
	} else if errors.Is(err, replica.ErrReplicaStalled) {
		t.Fatalf("torn newest segment stalled the follower: %v", err)
	}
	// The "ship" completes; the follower recovers on its own.
	if err := os.WriteFile(tailFile, good, 0o644); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f)

	// Corrupt a segment with a successor: final bytes, final damage.
	badLSN := p.commit()
	p.commit()
	badFile := filepath.Join(p.arch, wal.SegmentFileName(badLSN))
	data, err := os.ReadFile(badFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(badFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(context.Background()); !errors.Is(err, replica.ErrReplicaStalled) {
		t.Fatalf("corrupt non-newest segment: err = %v, want ErrReplicaStalled", err)
	}
}

// TestPromote pins failover: the promoted store is read-write at the
// applied LSN, keeps committing into the follower's archive with
// continuous LSNs, refuses to follow again, and the original base plus the
// follower's archive replay the whole cross-failover history (PITR
// intact).
func TestPromote(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)

	db := filepath.Join(dir, "follower.db")
	farch := filepath.Join(dir, "follower-segments")
	f, err := replica.Open(db, replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base, ArchiveDir: farch})
	if err != nil {
		t.Fatal(err)
	}
	p.commit()
	p.commit()
	catchUp(t, f)
	applied := f.Stats().AppliedLSN
	preXML := followerXML(t, f)
	p.close() // primary dies; failover

	s, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.XMLString(); err != nil || got != preXML {
		t.Fatalf("promoted store document changed: %v", err)
	}
	// Read-write: new commits land and archive continuously after the
	// fence.
	frag, err := axml.ParseFragment(`<post-failover/>`)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := axml.Query(s, `/log`)
	if err != nil || len(roots) != 1 {
		t.Fatalf("query root: %v (%d nodes)", err, len(roots))
	}
	if _, err := s.InsertIntoLast(roots[0], frag); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	finalXML, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(farch)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || len(wal.Contiguous(segs, segs[0].LSN-1)) != len(segs) || segs[len(segs)-1].LSN <= applied {
		t.Fatalf("promoted archive not a continuous history past LSN %d: %+v", applied, segs)
	}

	// The promoted store never follows again.
	if _, err := replica.Open(db, nil, replica.Options{Store: testCfg(), ArchiveDir: farch}); !errors.Is(err, replica.ErrPromoted) {
		t.Fatalf("reopen of a promoted store as a follower: err = %v, want ErrPromoted", err)
	}

	// PITR across the failover: original base + the follower's archive.
	restored := filepath.Join(dir, "pitr.db")
	info, err := recov.Restore(base, restored, recov.RestoreOptions{ArchiveDir: farch})
	if err != nil {
		t.Fatal(err)
	}
	if info.FinalLSN != segs[len(segs)-1].LSN {
		t.Fatalf("cross-failover restore landed at LSN %d, want %d", info.FinalLSN, segs[len(segs)-1].LSN)
	}
	rs, err := axml.ReopenFileReadOnly(restored, axml.Config{Mode: axml.RangeOnly, PageSize: pgSize})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got, err := rs.XMLString(); err != nil || got != finalXML {
		t.Fatalf("cross-failover restore differs from the promoted document: %v", err)
	}
}

// TestPromoteWithoutCatchUp pins the LSN floor: a follower promoted with an
// empty local archive (bootstrapped, never applied a segment) must still
// number its first commit after the base LSN, or its history would collide
// with the shipped one.
func TestPromoteWithoutCatchUp(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	p.commit()
	base := filepath.Join(dir, "base.bak")
	meta := p.backup(base)
	p.close()

	db := filepath.Join(dir, "follower.db")
	farch := filepath.Join(dir, "follower-segments")
	f, err := replica.Open(db, nil, replica.Options{Store: testCfg(), Base: base, ArchiveDir: farch})
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	frag, err := axml.ParseFragment(`<after/>`)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := axml.Query(s, `/log`)
	if err != nil || len(roots) != 1 {
		t.Fatalf("query root: %v", err)
	}
	if _, err := s.InsertIntoLast(roots[0], frag); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(farch)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].LSN != meta.LSN+1 {
		t.Fatalf("first post-promotion segment = %+v, want LSN %d", segs, meta.LSN+1)
	}
}

// TestParentEraEpochFilesStillWork pins compatibility with stores written
// while the fleet epoch was also kept in the replica sidecar ("epoch") and
// in an archive manifest (epochs.json): such a follower still resumes,
// tails a source archive holding the manifest, promotes, and restores
// across the failover. The rewritten sidecar drops the field — the epoch's
// one durable home is the failover term file.
func TestParentEraEpochFilesStillWork(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)

	db := filepath.Join(dir, "follower.db")
	farch := filepath.Join(dir, "follower-segments")
	tr := func() replica.Transport {
		return replica.NewDirTransport(p.arch, replica.DirTransportOptions{})
	}
	f, err := replica.Open(db, tr(), replica.Options{Store: testCfg(), Base: base, ArchiveDir: farch})
	if err != nil {
		t.Fatal(err)
	}
	p.commit()
	catchUp(t, f)
	applied := f.Stats().AppliedLSN
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// What the older code left behind.
	sidecar := readJSON(t, db+".replica")
	sidecar["epoch"] = 3
	writeJSON(t, db+".replica", sidecar)
	manifest := []map[string]uint64{{"epoch": 1, "from_lsn": 1}, {"epoch": 3, "from_lsn": applied + 1}}
	writeJSON(t, filepath.Join(p.arch, "epochs.json"), manifest)
	writeJSON(t, filepath.Join(farch, "epochs.json"), manifest)

	f, err = replica.Open(db, tr(), replica.Options{Store: testCfg(), ArchiveDir: farch})
	if err != nil {
		t.Fatalf("reopen over a sidecar carrying an epoch: %v", err)
	}
	if st := f.Stats(); st.AppliedLSN != applied {
		t.Fatalf("resumed at LSN %d, want %d", st.AppliedLSN, applied)
	}
	p.commit()
	p.commit()
	catchUp(t, f)
	if got, want := followerXML(t, f), p.xml(); got != want {
		t.Fatal("follower did not converge past a source archive holding epochs.json")
	}
	p.close()

	s, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	frag, err := axml.ParseFragment(`<post-failover/>`)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := axml.Query(s, `/log`)
	if err != nil || len(roots) != 1 {
		t.Fatalf("query root: %v", err)
	}
	if _, err := s.InsertIntoLast(roots[0], frag); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	finalXML, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	promoted := readJSON(t, db+".replica")
	if _, ok := promoted["epoch"]; ok || promoted["promoted"] != true || promoted["fenced_lsn"] == nil {
		t.Fatalf("promoted sidecar %v: want promoted with a fenced_lsn and no epoch", promoted)
	}

	restored := filepath.Join(dir, "pitr.db")
	if _, err := recov.Restore(base, restored, recov.RestoreOptions{ArchiveDir: farch}); err != nil {
		t.Fatalf("restore over an archive holding epochs.json: %v", err)
	}
	rs, err := axml.ReopenFileReadOnly(restored, axml.Config{Mode: axml.RangeOnly, PageSize: pgSize})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got, err := rs.XMLString(); err != nil || got != finalXML {
		t.Fatalf("cross-failover restore differs from the promoted document: %v", err)
	}
}

func readJSON(t *testing.T, path string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A segment whose page apply fails partway on a full disk — its undo
// failing too — leaves its pages half in the store file, and its local copy
// is their redo record. A retry on the still-full disk must not destroy
// that copy: a follower that dies then reopens to the whole segment, never
// to the half-applied file.
func TestHalfAppliedSegmentKeepsItsRedoCopy(t *testing.T) {
	dir := t.TempDir()
	p := newPrimary(t, dir)
	defer p.close()
	p.commit()
	base := filepath.Join(dir, "base.bak")
	p.backup(base)
	db := filepath.Join(dir, "follower.db")
	open := func(inj *fault.Injector) *replica.Follower {
		t.Helper()
		f, err := replica.Open(db, replica.NewDirTransport(p.arch, replica.DirTransportOptions{}), replica.Options{
			Store: testCfg(),
			Base:  base,
			Wrap:  func(f wal.File) wal.File { return fault.NewFile(inj, f) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	inj := fault.NewInjector(fault.Config{})
	f := open(inj)
	before := followerXML(t, f)
	var big strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&big, `<e n="big-%d">a record long enough to fill pages</e>`, i)
	}
	frag, err := axml.ParseFragment(big.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.s.InsertIntoLast(p.root, frag); err != nil {
		t.Fatal(err)
	}
	if err := p.s.Flush(); err != nil { // one segment of several pages
		t.Fatal(err)
	}
	want := p.xml()
	pages, _, err := wal.ReadSegment(filepath.Join(p.arch, wal.SegmentFileName(p.wp.LSN())), pgSize, func(pagestore.PageID, []byte) error { return nil })
	if err != nil || len(pages) < 3 {
		t.Fatalf("the segment holds %d pages (%v): the test needs a batch of several", len(pages), err)
	}

	// Writes from here: the local copy, then one per page — the disk fills
	// at the last page, and stays full for the undo.
	inj.ArmDiskFull(1 + len(pages))
	if err := f.CatchUp(context.Background()); !errors.Is(err, fault.ErrDiskFull) {
		t.Fatalf("apply on a filling disk: %v", err)
	}
	if err := f.CatchUp(context.Background()); !errors.Is(err, fault.ErrDiskFull) {
		t.Fatalf("retry on the full disk: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Logf("close on the full disk: %v", err)
	}
	f = open(fault.NewInjector(fault.Config{}))
	defer f.Close()
	if got := followerXML(t, f); got != want && got != before {
		t.Fatal("the reopened follower serves neither the state before the segment nor the one after")
	}
	catchUp(t, f)
	if got := followerXML(t, f); got != want {
		t.Fatal("the reopened follower did not converge")
	}
}

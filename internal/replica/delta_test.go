// Delta records on the replication and restore paths: histories written
// before delta records existed still recover, open read-only, restore and
// feed a follower, a follower whose page file is not the page a delta was
// diffed against stalls instead of applying it, and a restarted follower
// replays its local copies whatever a crash left in its page file.
package replica_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	axml "repro"
	"repro/internal/core"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/replica"
	"repro/internal/wal"
)

// parentEraBatch encodes a batch the way the journal wrote every batch
// before delta records existed: one full page image per page, then the
// commit record with the page count and the LSN.
func parentEraBatch(pages []wal.PageImage, lsn uint64) []byte {
	var out []byte
	record := func(typ byte, id uint32, payload []byte) {
		start := len(out)
		out = append(out, typ)
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	}
	for _, p := range pages {
		record(1, uint32(p.ID), p.Data)
	}
	var l [8]byte
	binary.LittleEndian.PutUint64(l[:], lsn)
	record(2, uint32(len(pages)), l[:])
	return out
}

func readXML(t *testing.T, s *core.Store) string {
	t.Helper()
	defer s.Close()
	x, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestParentEraLogAndSegments: a crashed primary whose log and archive hold
// only full page images, byte for byte what the journal wrote before delta
// records, must open read-only, restore to a point in time, feed a follower
// and recover — each to the document the same history gives today.
func TestParentEraLogAndSegments(t *testing.T) {
	dir := t.TempDir()
	p := newPaddedPrimary(t, dir, 400)
	p.commit() // splits the loaded range
	base := filepath.Join(dir, "base.bak")
	meta := p.backup(base)
	want := map[uint64]string{meta.LSN: p.xml()}
	for i := 0; i < 4; i++ {
		lsn := p.commit()
		want[lsn] = p.xml()
	}
	head := p.wp.LSN()
	if err := p.wp.CloseWithoutCommit(); err != nil { // crash: the log keeps its batches
		t.Fatal(err)
	}
	if countDeltas(t, p.arch, meta.LSN+1, head) == 0 {
		t.Fatal("the history holds no delta record; rewriting it proves nothing")
	}

	// Rewrite the history as full images: every segment past the base, and
	// a log of those same batches (replaying a batch the page file already
	// holds is idempotent, so the log may start anywhere at or before the
	// last checkpoint).
	img, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	prev := func(id pagestore.PageID, buf []byte) error {
		clear(buf)
		if off := int(id) * pgSize; off < len(img) {
			copy(buf, img[off:])
		}
		return nil
	}
	var log []byte
	for lsn := meta.LSN + 1; lsn <= head; lsn++ {
		path := filepath.Join(p.arch, wal.SegmentFileName(lsn))
		pages, _, err := wal.ReadSegment(path, pgSize, prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range pages {
			off := int(pg.ID) * pgSize
			if grow := off + pgSize - len(img); grow > 0 {
				img = append(img, make([]byte, grow)...)
			}
			copy(img[off:], pg.Data)
		}
		seg := parentEraBatch(pages, lsn)
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wal.ParseSegment("rewritten", seg, pgSize, nil); err != nil {
			t.Fatalf("rewritten segment %d: %v", lsn, err)
		}
		log = append(log, seg...)
	}
	if err := os.WriteFile(p.db+".wal", log, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := axml.Config{Mode: axml.RangeOnly, PageSize: pgSize}
	ro, err := axml.ReopenFileReadOnly(p.db, cfg)
	if err != nil {
		t.Fatalf("read-only open over a parent-era log: %v", err)
	}
	if got := readXML(t, ro); got != want[head] {
		t.Fatal("read-only open over a parent-era log serves a different document")
	}

	for _, target := range []uint64{meta.LSN + 2, head} {
		dest := filepath.Join(dir, "pitr.db")
		if _, err := recov.Restore(base, dest, recov.RestoreOptions{ArchiveDir: p.arch, TargetLSN: target}); err != nil {
			t.Fatalf("restore to LSN %d from parent-era segments: %v", target, err)
		}
		rs, err := axml.ReopenFileReadOnly(dest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := readXML(t, rs); got != want[target] {
			t.Fatalf("restore to LSN %d differs from the document committed there", target)
		}
		os.Remove(dest)
	}

	f, err := replica.Open(filepath.Join(dir, "follower.db"),
		replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base})
	if err != nil {
		t.Fatal(err)
	}
	catchUp(t, f)
	if st := f.Stats(); st.AppliedLSN != head {
		t.Fatalf("follower fed parent-era segments stopped at LSN %d, want %d", st.AppliedLSN, head)
	}
	if got := followerXML(t, f); got != want[head] {
		t.Fatal("follower fed parent-era segments serves a different document")
	}
	f.Close()

	s, err := axml.ReopenFileWAL(p.db, cfg, p.arch)
	if err != nil {
		t.Fatalf("recovery of a parent-era log: %v", err)
	}
	if got := readXML(t, s); got != want[head] {
		t.Fatal("recovery of a parent-era log produced a different document")
	}
}

// sidecarFault refuses writes to the follower's position sidecar while fail
// is set, and passes every other file through.
type sidecarFault struct {
	wal.File
	fail *atomic.Bool
}

func (s sidecarFault) WriteAt(b []byte, off int64) (int, error) {
	if s.fail.Load() {
		return 0, errors.New("test: sidecar write refused")
	}
	return s.File.WriteAt(b, off)
}

// TestFollowerReplaysOverAnyStoreFile: a delta resolves against the
// follower's store file, so the store file must be at the applied LSN when
// one is validated — yet a crash can leave it ahead of the durable sidecar
// or torn into garbage. A pass whose sidecar write failed therefore applies
// nothing more until the sidecar is rewritten, and the local archive holds
// full images, so a restart replays it correctly over whatever the store
// file holds: here three segments ahead of the sidecar, with one of the
// first segment's pages overwritten with garbage.
func TestFollowerReplaysOverAnyStoreFile(t *testing.T) {
	dir := t.TempDir()
	p := newPaddedPrimary(t, dir, 400)
	defer p.close()
	p.commit() // splits the loaded range
	base := filepath.Join(dir, "base.bak")
	p.backup(base)
	db := filepath.Join(dir, "follower.db")
	var fail atomic.Bool
	opt := replica.Options{Store: testCfg(), Base: base, FetchRetries: -1,
		Wrap: func(f wal.File) wal.File {
			if n, ok := f.(interface{ Name() string }); ok && strings.HasSuffix(n.Name(), ".replica.tmp") {
				return sidecarFault{f, &fail}
			}
			return f
		}}
	open := func() *replica.Follower {
		t.Helper()
		f, err := replica.Open(db, replica.NewDirTransport(p.arch, replica.DirTransportOptions{}), opt)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := open()
	p.commit()
	catchUp(t, f)
	start := f.Stats().AppliedLSN
	startSidecar, err := os.ReadFile(db + ".replica")
	if err != nil {
		t.Fatal(err)
	}
	first := p.commit()
	p.commit()
	head := p.commit()
	if countDeltas(t, p.arch, first, head) == 0 {
		t.Fatal("the segments past the follower hold no delta record")
	}
	want := p.xml()

	// The sidecar write for the first segment fails: its pages are applied
	// and archived, but no later segment may follow while the sidecar lags.
	fail.Store(true)
	if err := f.CatchUp(context.Background()); err == nil {
		t.Fatal("catch-up with a failing sidecar write reported success")
	}
	if got := f.Stats().AppliedLSN; got != first {
		t.Fatalf("applied LSN %d after the failed sidecar write, want %d", got, first)
	}
	file, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(context.Background()); err == nil {
		t.Fatal("catch-up over a lagging sidecar reported success")
	}
	if after, err := os.ReadFile(db); err != nil || !bytes.Equal(after, file) {
		t.Fatalf("a segment was applied while the sidecar lagged the store file (%v)", err)
	}
	fail.Store(false)
	catchUp(t, f)
	if got := f.Stats().AppliedLSN; got != head {
		t.Fatalf("converged to LSN %d, want %d", got, head)
	}
	f.Close()

	// A crash that leaves the sidecar at start, the store file at head, and
	// garbage in a page the first segment wrote.
	if err := os.WriteFile(db+".replica", startSidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	pages, _, err := wal.ReadSegment(filepath.Join(p.arch, wal.SegmentFileName(first)), pgSize,
		func(pagestore.PageID, []byte) error { return nil }) // only the page ids matter
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xA5}, pgSize)
	raw, err := os.OpenFile(db, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt(garbage, int64(pages[0].ID)*pgSize); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	f = open()
	defer f.Close()
	if got := f.Stats().AppliedLSN; got != head {
		t.Fatalf("reopened at LSN %d, want %d (sidecar at %d, local copies up to %d)", got, head, start, head)
	}
	if err := f.Read(replica.ReadOptions{}, func(s *core.Store) error { return s.Verify() }); err != nil {
		t.Fatalf("replayed follower fails verification: %v", err)
	}
	if got := followerXML(t, f); got != want {
		t.Fatal("replayed follower serves a different document")
	}
}

// TestFollowerStallsOnDivergedBase: a delta applies to the follower's own
// copy of the page, so a follower whose copy is not the page the primary
// diffed against must not apply it. One flipped byte, in a page the next
// segment's delta touches and outside that delta's runs, must stall the
// follower with a checksum error, leave its page file as it was and its
// applied LSN where it was.
func TestFollowerStallsOnDivergedBase(t *testing.T) {
	dir := t.TempDir()
	p := newPaddedPrimary(t, dir, 400)
	defer p.close()
	p.commit() // splits the loaded range
	base := filepath.Join(dir, "base.bak")
	p.backup(base)
	db := filepath.Join(dir, "follower.db")
	f, err := replica.Open(db, replica.NewDirTransport(p.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: base, FetchRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p.commit()
	catchUp(t, f)
	applied := f.Stats().AppliedLSN

	next := p.commit()
	p.commit() // a successor makes the next segment's bytes final
	seg, err := os.ReadFile(filepath.Join(p.arch, wal.SegmentFileName(next)))
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	page := func(img []byte, id pagestore.PageID) []byte {
		return img[int(id)*pgSize : int(id+1)*pgSize]
	}
	resolve := func(img []byte) []wal.PageImage {
		pages, _, err := wal.ParseSegment("next", seg, pgSize, func(id pagestore.PageID, buf []byte) error {
			copy(buf, page(img, id))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	// Find a byte the next segment's delta leaves alone: flipping it must
	// change what the delta resolves to.
	good := resolve(file)
	var touched []pagestore.PageID
	wal.ParseSegment("next", seg, pgSize, func(id pagestore.PageID, buf []byte) error {
		touched = append(touched, id)
		return nil
	})
	if len(touched) == 0 {
		t.Fatal("the next segment holds no delta")
	}
	flipped := bytes.Clone(file)
	victim := touched[0]
	at := -1
	for i := pgSize - 1; i >= 0 && at < 0; i-- {
		page(flipped, victim)[i] ^= 0x5A
		for j, pg := range resolve(flipped) {
			if !bytes.Equal(pg.Data, good[j].Data) {
				at = int(victim)*pgSize + i
			}
		}
		page(flipped, victim)[i] ^= 0x5A
	}
	if at < 0 {
		t.Fatalf("every byte of page %d is covered by the delta", victim)
	}
	flipped[at] ^= 0x5A
	if err := os.WriteFile(db, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	err = f.CatchUp(context.Background())
	st := f.Stats()
	if !errors.Is(err, replica.ErrReplicaStalled) || !strings.Contains(st.StallCause, pagestore.ErrCorruptPage.Error()) {
		t.Fatalf("catch-up over a diverged page %d: %v (cause %q), want a stall on a checksum error", victim, err, st.StallCause)
	}
	if st.AppliedLSN != applied {
		t.Fatalf("stalled follower moved from LSN %d to %d", applied, st.AppliedLSN)
	}
	after, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, flipped) {
		t.Fatal("the follower wrote its page file although the segment did not verify")
	}
	if _, err := os.Stat(filepath.Join(db+".archive", wal.SegmentFileName(next))); !os.IsNotExist(err) {
		t.Fatalf("the follower archived a segment it refused to apply: %v", err)
	}
}

package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pagestore"
)

// syncCounter counts fsyncs below the journal the way an outside observer
// (the benchmark's wrappers) would: every Sync on the log and on the page
// file.
type syncCounter struct{ log, page atomic.Uint64 }

type countedLog struct {
	File
	c *syncCounter
}

func (f countedLog) Sync() error { f.c.log.Add(1); return f.File.Sync() }

type countedPager struct {
	InnerPager
	c *syncCounter
}

func (p countedPager) Sync() error { p.c.page.Add(1); return p.InnerPager.Sync() }

// openCounted opens a journaled pager over a page file of n allocated pages,
// all committed and checkpointed, with fsync counting underneath.
func openCounted(t *testing.T, n int, archive string) (*Pager, string, []pagestore.PageID, *syncCounter) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	c := &syncCounter{}
	p, err := OpenWithOptions(path, 512, Options{
		ArchiveDir: archive,
		WrapLog:    func(f File) File { return countedLog{f, c} },
		WrapPager:  func(ip InnerPager) InnerPager { return countedPager{ip, c} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]pagestore.PageID, n)
	for i := range ids {
		if ids[i], err = p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	return p, path, ids, c
}

func fill(b byte) []byte { return bytes.Repeat([]byte{b}, 512) }

// batchBytes is the log footprint of a one-page commit at 512-byte pages.
const batchBytes = (recHeader + 512 + 4) + (recHeader + 8 + 4)

// A commit costs one fsync; the page file is left alone until the log has
// outgrown 1/checkpointFraction of it, then one checkpoint (two more fsyncs)
// folds every batch in on a goroutine of its own and rewinds the log. The
// journal's own counters agree with what an observer below it counts.
// Commits per checkpoint follow from the bytes each batch logs: a full image
// per page on its first touch, a delta after that.
func TestLazyCheckpoint(t *testing.T) {
	const pages = 200
	p, path, ids, c := openCounted(t, pages, "")
	threshold := int64((pages+1)*512) / checkpointFraction
	perCheckpoint := int(threshold/batchBytes) + 1 // the commit that crosses the line checkpoints

	raw := make([]byte, 512)
	readRaw := func(id pagestore.PageID) []byte {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.ReadAt(raw, int64(id)*512); err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for i := 1; i < perCheckpoint; i++ {
		if err := p.WritePage(ids[i], fill(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commits, syncs, checkpoints, _, logBytes, _, _, _ := p.JournalStats()
	if n := uint64(perCheckpoint - 1); commits != n || syncs != n || checkpoints != 0 || logBytes != int64(n)*batchBytes {
		t.Fatalf("before the threshold: commits %d syncs %d checkpoints %d log %d, want %d/%d/0/%d",
			commits, syncs, checkpoints, logBytes, n, n, int64(n)*batchBytes)
	}
	if !bytes.Equal(readRaw(ids[1]), make([]byte, 512)) {
		t.Fatal("a commit below the threshold wrote the page file")
	}
	got := make([]byte, 512)
	if err := p.ReadPage(ids[1], got); err != nil || !bytes.Equal(got, fill(1)) {
		t.Fatalf("staged image not served from the overlay (err %v)", err)
	}

	if err := p.WritePage(ids[perCheckpoint], fill(byte(perCheckpoint))); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	p.waitCheckpoint()
	commits, syncs, checkpoints, _, logBytes, _, _, _ = p.JournalStats()
	if n := uint64(perCheckpoint); commits != n || syncs != n+2 || checkpoints != 1 || logBytes != 0 {
		t.Fatalf("after the threshold: commits %d syncs %d checkpoints %d log %d, want %d/%d/1/0",
			commits, syncs, checkpoints, logBytes, n, n+2)
	}
	if observed := c.log.Load() + c.page.Load(); observed != syncs {
		t.Fatalf("journal counted %d fsyncs, the wrappers saw %d", syncs, observed)
	}
	for i := 1; i <= perCheckpoint; i++ {
		if !bytes.Equal(readRaw(ids[i]), fill(byte(i))) {
			t.Fatalf("page %d missing from the page file after the checkpoint", ids[i])
		}
	}
	// The checkpoint rewound the log rather than truncating it: the file
	// keeps its size, and its start record names the next batch's LSN at
	// the old tail, where replay finds nothing of that LSN.
	log, err := os.ReadFile(path + ".wal")
	if want := ringBase + int64(perCheckpoint)*batchBytes; err != nil || int64(len(log)) != want {
		t.Fatalf("log after checkpoint: %v, size %d, want %d", err, len(log), want)
	}
	if pos, lsn, ring, err := logStart(log); err != nil || pos != len(log) || lsn != commits+1 || !ring {
		t.Fatalf("start record after checkpoint: offset %d LSN %d ring %v (%v); want %d, %d, a ring", pos, lsn, ring, err, len(log), commits+1)
	}
	if images, _, err := ParseLog(log, 512); err != nil || len(images) != 0 {
		t.Fatalf("the log replays %d images after the checkpoint (%v), want none", len(images), err)
	}

	// One page rewritten with one byte changed per commit: the first commit
	// after the checkpoint logs the page in full, every later one a delta
	// of one run, so the next checkpoint comes where the threshold divided
	// by those two sizes says — many times later than with full images.
	const deltaBatch = (recHeader + 2 + 1 + 1 + 4) + (recHeader + 8 + 4) // offset 300 is a 2-byte uvarint
	img := fill(0x42)
	var logged int64
	for i := 1; ; i++ {
		img[300] = byte(i)
		if err := p.WritePage(ids[0], img); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		p.waitCheckpoint()
		if i == 1 {
			logged = batchBytes
		} else {
			logged += deltaBatch
		}
		_, _, checkpoints, _, logBytes, _, _, _ = p.JournalStats()
		if logged > threshold {
			if checkpoints != 2 || logBytes != 0 {
				t.Fatalf("commit %d crossed the threshold: %d checkpoints, log %d bytes; want 2, 0", i, checkpoints, logBytes)
			}
			if i < 10*perCheckpoint {
				t.Fatalf("deltas bought only %d commits per checkpoint against %d with full images", i, perCheckpoint)
			}
			break
		}
		if checkpoints != 1 || logBytes != logged {
			t.Fatalf("commit %d: %d checkpoints, log %d bytes; want 1, %d", i, checkpoints, logBytes, logged)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// Freeing a page does not free its staged image: the free is one writer's
// uncommitted intention, the image is an acknowledged commit, and a
// checkpoint may run between the two (another writer's leader, repair,
// backup). That checkpoint must carry the image into the page file before it
// rewinds the log — after a crash the committed tree still points at it.
func TestFreeKeepsStagedImageUntilCommitted(t *testing.T) {
	p, path, ids, _ := openCounted(t, 200, "")
	victim := ids[10]
	if err := p.WritePage(victim, fill(0x5A)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(victim, fill(0x6B)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil { // acknowledged: 0x6B is the page's committed image
		t.Fatal(err)
	}
	before := p.PageCount()
	if err := p.Free(victim); err != nil {
		t.Fatal(err)
	}
	if got := p.PageCount(); got != before-1 {
		t.Fatalf("page count %d after a free, want %d", got, before-1)
	}
	if err := p.ReadPage(victim, make([]byte, 512)); !errors.Is(err, pagestore.ErrFreedPage) {
		t.Fatalf("read of a freed page: %v, want ErrFreedPage", err)
	}
	if err := p.Free(victim); !errors.Is(err, pagestore.ErrFreedPage) {
		t.Fatalf("double free: %v, want ErrFreedPage", err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with an uncommitted free outstanding: %v", err)
	}
	// The free never commits: crash.
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	if err := p2.ReadPage(victim, got); err != nil || !bytes.Equal(got, fill(0x6B)) {
		t.Fatalf("acknowledged image lost: err %v, first byte %#x, want 0x6b", err, got[0])
	}
}

// A discarded free is forgotten — the page stays allocated and readable —
// and a committed one releases the id at the next checkpoint, not before:
// until the batch that unreferences the page is durable and the log is
// folded, the allocator (which zero-fills what it hands out) must not touch
// it. The page's last staged image still reaches the page file.
func TestFreeReleasedAtCheckpoint(t *testing.T) {
	p, path, ids, _ := openCounted(t, 200, "")
	defer p.Close()
	victim, other := ids[10], ids[11]
	if err := p.WritePage(victim, fill(0x5A)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := p.Free(victim); err != nil {
		t.Fatal(err)
	}
	p.DiscardPending()
	got := make([]byte, 512)
	if err := p.ReadPage(victim, got); err != nil || !bytes.Equal(got, fill(0x5A)) {
		t.Fatalf("page after a discarded free: err %v, first byte %#x, want 0x5a", err, got[0])
	}

	if err := p.Free(victim); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(other, fill(0x01)); err != nil { // the batch that stops referencing victim
		t.Fatal(err)
	}
	lsn, err := p.Stage()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == victim {
		t.Fatalf("page %d reused before the batch freeing it was durable", victim)
	}
	if err := p.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 512)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(raw, int64(victim)*512); err != nil || !bytes.Equal(raw, fill(0x5A)) {
		t.Fatalf("freed page's last committed image never reached the page file: err %v, first byte %#x", err, raw[0])
	}
	reused, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if reused != victim {
		t.Fatalf("allocator handed out %d after the checkpoint, expected the freed %d back", reused, victim)
	}
	if err := p.WritePage(reused, fill(0x7C)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadPage(reused, got); err != nil || !bytes.Equal(got, fill(0x7C)) {
		t.Fatalf("reused page: err %v, first byte %#x, want 0x7c", err, got[0])
	}
}

// brokenPager is a page file whose writes fail while broken is set — the
// .db on a device that has gone bad or full while the .wal's still works.
type brokenPager struct {
	InnerPager
	broken   *atomic.Bool
	attempts *atomic.Uint64
}

func (p brokenPager) WritePage(id pagestore.PageID, buf []byte) error {
	if p.broken.Load() {
		p.attempts.Add(1)
		return errors.New("page file: input/output error")
	}
	return p.InnerPager.WritePage(id, buf)
}

// A page file that keeps failing costs commits nothing but is not retried
// on every one of them: attempts thin out geometrically, each is counted,
// and once the file works again a checkpoint folds everything in.
func TestFailingCheckpointBacksOff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	var broken atomic.Bool
	var attempts atomic.Uint64
	p, err := OpenWithOptions(path, 512, Options{
		Retries:   -1,
		WrapPager: func(ip InnerPager) InnerPager { return brokenPager{ip, &broken, &attempts} },
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate() // a one-page file: every commit makes a checkpoint due
	if err != nil {
		t.Fatal(err)
	}
	broken.Store(true)
	const commits = 40
	for i := 1; i <= commits; i++ {
		if err := p.WritePage(id, fill(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatalf("commit %d: %v; a failing checkpoint is not a failing commit", i, err)
		}
		p.waitCheckpoint()
	}
	// Attempts at commits 1, 3, 6, 11, 20, 37: the wait doubles each time.
	_, _, checkpoints, failed, logBytes, _, _, _ := p.JournalStats()
	if checkpoints != 0 || failed != 6 || failed != attempts.Load() || logBytes != commits*batchBytes {
		t.Fatalf("%d checkpoints, %d failed (%d attempts seen), log %d bytes; want 0, 6 (6), %d",
			checkpoints, failed, attempts.Load(), logBytes, commits*batchBytes)
	}
	got := make([]byte, 512)
	if err := p.ReadPage(id, got); err != nil || !bytes.Equal(got, fill(commits)) {
		t.Fatalf("read during the outage: err %v, first byte %d, want %d", err, got[0], commits)
	}
	if err := p.Checkpoint(); err == nil {
		t.Fatal("an explicit checkpoint on the broken file reported success")
	}

	broken.Store(false)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, checkpoints, failed, logBytes, _, _, _ := p.JournalStats(); checkpoints != 1 || failed != 7 || logBytes != 0 {
		t.Fatalf("after the outage: %d checkpoints, %d failed, log %d bytes; want 1, 7, 0", checkpoints, failed, logBytes)
	}
	// The backoff is gone with the outage: the next commit checkpoints.
	if err := p.WritePage(id, fill(0xEE)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	p.waitCheckpoint()
	if _, _, checkpoints, _, _, _, _, _ := p.JournalStats(); checkpoints != 2 {
		t.Fatalf("%d checkpoints after recovery, want 2", checkpoints)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// OpenReadOnly serves exactly what recovery would produce — page file plus
// every complete batch in the log — without writing either file.
func TestOpenReadOnlyOverlaysLog(t *testing.T) {
	p, path, ids, _ := openCounted(t, 200, "")
	for i := 1; i <= 3; i++ {
		if err := p.WritePage(ids[i], fill(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := p.WritePage(ids[0], fill(byte(0xF0+i))); err != nil { // rewritten every batch
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WritePage(ids[4], fill(0xEE)); err != nil { // never staged
		t.Fatal(err)
	}
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path + ".wal")
	if err != nil || len(before) == 0 {
		t.Fatalf("log after crash: %d bytes, err %v; the scenario needs unapplied batches", len(before), err)
	}

	ro, err := OpenReadOnly(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	for i := 1; i <= 3; i++ {
		if err := ro.ReadPage(ids[i], got); err != nil || !bytes.Equal(got, fill(byte(i))) {
			t.Fatalf("page of batch %d through the read-only view: err %v", i, err)
		}
	}
	if err := ro.ReadPage(ids[0], got); err != nil || !bytes.Equal(got, fill(0xF3)) {
		t.Fatalf("later batch must win: err %v, first byte %#x", err, got[0])
	}
	if err := ro.ReadPage(ids[4], got); err != nil || !bytes.Equal(got, make([]byte, 512)) {
		t.Fatalf("an unstaged write leaked: err %v", err)
	}
	if err := ro.WritePage(ids[1], got); err != pagestore.ErrReadOnlyFile {
		t.Fatalf("write through the read-only view: %v", err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path + ".wal")
	if err != nil || !bytes.Equal(before, after) {
		t.Fatal("the read-only open changed the log")
	}
}

// Concurrent committers: tickets are handed out without gaps or repeats,
// every ticket's Sync returns only once that batch is acknowledged and
// archived, and no round costs more than one log fsync per batch. (That
// rounds actually share fsyncs under a slow log is pinned in
// internal/fault, where the fsync latency is injected.)
func TestGroupCommitTickets(t *testing.T) {
	arch := filepath.Join(t.TempDir(), "segments")
	p, _, ids, c := openCounted(t, 400, arch)
	const writers, rounds = 8, 25
	var mu sync.Mutex // stands in for the store lock: write + stage are one step
	var wg sync.WaitGroup
	seen := make([]bool, writers*rounds+1)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				err := p.WritePage(ids[w*rounds+r], fill(byte(w)))
				var lsn uint64
				if err == nil {
					lsn, err = p.Stage()
				}
				if err == nil {
					if lsn == 0 || int(lsn) >= len(seen) || seen[lsn] {
						t.Errorf("ticket %d handed out twice or out of range", lsn)
					} else {
						seen[lsn] = true
					}
				}
				mu.Unlock()
				if err == nil {
					err = p.Sync(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
				if p.LSN() < lsn {
					t.Errorf("Sync(%d) returned with only %d acknowledged", lsn, p.LSN())
				}
				if _, err := os.Stat(filepath.Join(arch, SegmentFileName(lsn))); err != nil {
					t.Errorf("Sync(%d) returned before its segment was archived: %v", lsn, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	commits, _, checkpoints, _, _, _, _, _ := p.JournalStats()
	if commits != writers*rounds || p.LSN() != writers*rounds {
		t.Fatalf("commits %d, LSN %d, want %d of each", commits, p.LSN(), writers*rounds)
	}
	// Every checkpoint ends in exactly one log fsync; the rest are commits.
	if logSyncs := c.log.Load() - checkpoints; logSyncs > commits {
		t.Fatalf("%d log fsyncs for %d commits", logSyncs, commits)
	}
	segs, err := Segments(arch)
	if err != nil {
		t.Fatal(err)
	}
	if run := Contiguous(segs, 0); len(run) != writers*rounds || len(segs) != len(run) {
		t.Fatalf("archive holds %d segments, %d contiguous from 1, want %d", len(segs), len(run), writers*rounds)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

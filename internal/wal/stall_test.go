package wal

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pagestore"
)

// gatedPager holds the page file's fsync once each time gate.armed is set,
// signalling on gate.reached and waiting on gate.release. Put above a fault
// injector, the held fsync counts as an I/O boundary only once released.
type gatedPager struct {
	InnerPager
	gate *fsyncGate
}

type fsyncGate struct {
	armed            atomic.Bool
	reached, release chan struct{}
}

func newFsyncGate() *fsyncGate {
	return &fsyncGate{reached: make(chan struct{}, 1), release: make(chan struct{})}
}

func (p gatedPager) Sync() error {
	if g := p.gate; g.armed.CompareAndSwap(true, false) {
		g.reached <- struct{}{}
		<-g.release
	}
	return p.InnerPager.Sync()
}

// waitCheckpoint returns once no checkpoint is running: tests that count
// checkpoints or I/O after a commit wait for the one it may have started.
func (p *Pager) waitCheckpoint() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.ckpt != nil {
		p.ckptDone.Wait()
	}
}

// checkpointing reports whether a checkpoint is running. A commit whose
// leader starts one returns only after its snapshot is taken.
func (p *Pager) checkpointing() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ckpt != nil
}

// within runs f and fails the test if it has not returned in a few seconds:
// f is waiting behind something it must not wait for.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited behind the checkpoint", what)
	}
}

// A checkpoint's page-file I/O holds up nobody. With the page file's fsync
// held, the commit that started the checkpoint is acknowledged, another
// writer's commit is acknowledged, and a read that misses the overlay and
// goes to the page file returns; no commit counts as having waited behind
// the checkpoint. Released, the checkpoint finishes and folds what its
// snapshot held. (Run the fold inline in Sync and the first commit never
// returns.)
func TestCheckpointDoesNotStallCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	gate := newFsyncGate()
	gate.armed.Store(true)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	p, err := OpenWithOptions(path, 512, Options{
		WrapPager: func(ip InnerPager) InnerPager { return gatedPager{ip, gate} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]pagestore.PageID, 256)
	for i := range ids {
		if ids[i], err = p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(id pagestore.PageID, b byte) func() error {
		return func() error {
			if err := p.WritePage(id, fill(b)); err != nil {
				return err
			}
			return p.Commit()
		}
	}
	// Full images of distinct pages until the log passes its share and the
	// leader starts a checkpoint, which the held fsync stops after its page
	// writes.
	n := 0
	for started := false; !started; {
		n++
		within(t, "the commit that starts the checkpoint", commit(ids[n], byte(n)))
		select {
		case <-gate.reached:
			started = true
		case <-time.After(10 * time.Millisecond):
			if n == len(ids)-2 {
				t.Fatal("no checkpoint started")
			}
		}
	}
	within(t, "another writer's commit", commit(ids[n+1], 0xEE))
	got := make([]byte, 512)
	within(t, "a read that misses the overlay", func() error { return p.ReadPage(ids[len(ids)-1], got) })
	within(t, "a read of a page the checkpoint is writing", func() error { return p.ReadPage(ids[1], got) })
	if !bytes.Equal(got, fill(1)) {
		t.Fatalf("page %d reads %#x during the checkpoint, want 0x01", ids[1], got[0])
	}
	if _, _, checkpoints, _, _, _, _, waits := p.JournalStats(); checkpoints != 0 || waits != 0 {
		t.Fatalf("with the page fsync held: %d checkpoints done, %d commits waited; want 0, 0", checkpoints, waits)
	}

	release()
	p.waitCheckpoint()
	_, _, checkpoints, failed, logBytes, _, _, waits := p.JournalStats()
	if checkpoints != 1 || failed != 0 || waits != 0 || logBytes == 0 {
		t.Fatalf("after release: %d checkpoints (%d failed), %d commits waited, %d live log bytes; want 1, 0, 0 and the commit staged during it still live",
			checkpoints, failed, waits, logBytes)
	}
	p.mu.RLock()
	overlay := len(p.overlay)
	p.mu.RUnlock()
	if overlay != 1 {
		t.Fatalf("%d overlay entries after the checkpoint, want only the page committed during it", overlay)
	}
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 1; i <= n; i++ {
		if err := p2.ReadPage(ids[i], got); err != nil || !bytes.Equal(got, fill(byte(i))) {
			t.Fatalf("page %d after recovery: %#x (%v), want %#x", ids[i], got[0], err, byte(i))
		}
	}
	if err := p2.ReadPage(ids[n+1], got); err != nil || !bytes.Equal(got, fill(0xEE)) {
		t.Fatalf("the commit acknowledged during the checkpoint: %#x (%v)", got[0], err)
	}
}

// Writers commit and readers read while checkpoints fold the log beside
// them, over a page file small enough that a checkpoint is due every few
// commits and the ring wraps. Every read returns one whole image no older than the
// newest one acknowledged before it began, and a reopen after a crash holds
// every acknowledged image. Run with -race, this is the overlap with
// readers.
func TestCheckpointOverlapWithReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	const writers, pagesPer, rounds, readers = 3, 8, 120, 2
	ids := make([]pagestore.PageID, writers*pagesPer)
	for i := range ids {
		if ids[i], err = p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // filler: a log share of a few batches
		if _, err = p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	acked := make([]atomic.Uint32, len(ids)) // newest acknowledged version per page
	var stage sync.Mutex                     // stands in for the store lock: write + stage are one step
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 512)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(len(ids))
				floor := acked[i].Load()
				if err := p.ReadPage(ids[i], buf); err != nil {
					t.Errorf("read page %d: %v", ids[i], err)
					return
				}
				if !bytes.Equal(buf, fill(buf[0])) || uint32(buf[0]) < floor {
					t.Errorf("page %d read %#x (uniform %v), acknowledged %#x before the read", ids[i], buf[0], bytes.Equal(buf, fill(buf[0])), floor)
					return
				}
			}
		}(int64(r))
	}
	errs := make(chan error, writers)
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for v := 1; v <= rounds; v++ {
				i := w*pagesPer + v%pagesPer
				stage.Lock()
				err := p.WritePage(ids[i], fill(byte(v)))
				var lsn uint64
				if err == nil {
					lsn, err = p.Stage()
				}
				stage.Unlock()
				if err == nil {
					err = p.Sync(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
				acked[i].Store(uint32(v))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.waitCheckpoint()
	commits, _, checkpoints, failed, _, _, _, waits := p.JournalStats()
	if checkpoints < 2 || failed != 0 {
		t.Fatalf("%d checkpoints (%d failed): the writers must overlap several", checkpoints, failed)
	}
	t.Logf("%d commits, %d checkpoints, %d commits waited", commits, checkpoints, waits)
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	buf := make([]byte, 512)
	for i, id := range ids {
		if err := p2.ReadPage(id, buf); err != nil || !bytes.Equal(buf, fill(byte(acked[i].Load()))) {
			t.Fatalf("page %d after recovery: %#x (%v), want %#x", id, buf[0], err, acked[i].Load())
		}
	}
}

// A commit waits behind a checkpoint only when the ring is full, and a full
// ring is never overwritten. The ring wraps behind a batch a checkpoint left
// live; a second checkpoint is held while commits fill the lower part up to
// that batch; the commit that would overrun it waits, and counts as having
// waited. The held checkpoint then crashes at its page fsync, so the start
// record stays where the batch the ring would have overrun begins: the
// waiting commit fails, and recovery from that start gives every
// acknowledged image back.
func TestRingFullWaitsForCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	inj := fault.NewInjector(fault.Config{})
	g := newFsyncGate()
	p, err := OpenWithOptions(path, 512, Options{
		WrapPager: func(ip InnerPager) InnerPager { return gatedPager{fault.NewPager(inj, ip), g} },
		Retries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]pagestore.PageID, 1024) // a quarter of the share holds several commits
	for i := range ids {
		if ids[i], err = p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[pagestore.PageID]byte{}
	v := byte(0)
	commit := func() error {
		v++
		id := ids[int(v)%len(ids)]
		if err := p.WritePage(id, fill(v)); err != nil {
			return err
		}
		if err := p.Commit(); err != nil {
			return err
		}
		want[id] = v
		return nil
	}
	ring := func() (live, share int64, wrapped bool) {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.liveBytes(), p.logShare(), p.wrapEnd != 0
	}
	// The first checkpoint, held while one commit lands behind its snapshot.
	// Commits stop as soon as one has started it: a commit more may find the
	// ring full behind the held checkpoint and wait for it.
	g.armed.Store(true)
	for !p.checkpointing() {
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	}
	<-g.reached
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	g.release <- struct{}{}
	p.waitCheckpoint()
	// Wrap behind that commit, then hold the second checkpoint.
	for _, _, wrapped := ring(); !wrapped; _, _, wrapped = ring() {
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	}
	g.armed.Store(true)
	for !p.checkpointing() {
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	}
	<-g.reached
	if _, _, wrapped := ring(); !wrapped {
		t.Fatal("the second checkpoint began with the ring unwrapped")
	}
	// Fill the lower part up to the live batch; the commit that would
	// overrun it waits.
	waits := func() uint64 { _, _, _, _, _, _, _, w := p.JournalStats(); return w }
	var waiting chan error
	for waiting == nil {
		done := make(chan error, 1)
		go func() { done <- commit() }()
	poll:
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				break poll
			case <-time.After(time.Millisecond):
				if waits() > 0 {
					waiting = done
					break poll
				}
			}
		}
	}
	if live, share, _ := ring(); waits() != 1 || live > 2*share {
		t.Fatalf("%d commits counted as waiting behind the checkpoint, live log %d bytes of a %d share; want 1, within twice the share", waits(), live, share)
	}
	inj.ArmCrash(1) // the held checkpoint's page fsync
	close(g.release)
	if err := <-waiting; err == nil {
		t.Fatal("the commit that waited for a full ring was acknowledged after its checkpoint crashed")
	}
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	for id, b := range want {
		if err := p2.ReadPage(id, got); err != nil || !bytes.Equal(got, fill(b)) {
			t.Fatalf("page %d after recovery: %#x (%v), want the acknowledged %#x", id, got[0], err, b)
		}
	}
}

// Once the ring has wrapped it cannot grow, so while the page file fails a
// commit that finds the ring full fails. It fails at once while the backoff
// lasts, rather than starting another rewrite of the whole overlay: attempts
// thin out geometrically. Once the page file works again, the commit that
// reaches the next attempt goes through, and recovery gives back every
// acknowledged image.
func TestFullRingBacksOffFailingCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	var broken atomic.Bool
	var attempts atomic.Uint64
	g := newFsyncGate()
	p, err := OpenWithOptions(path, 512, Options{
		WrapPager: func(ip InnerPager) InnerPager { return gatedPager{brokenPager{ip, &broken, &attempts}, g} },
		Retries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]pagestore.PageID, 1024)
	for i := range ids {
		if ids[i], err = p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[pagestore.PageID]byte{}
	v := byte(0)
	commit := func(id pagestore.PageID) error {
		v++
		if err := p.WritePage(id, fill(v)); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			return err
		}
		want[id] = v
		p.waitCheckpoint()
		return nil
	}
	next := func() pagestore.PageID { return ids[int(v)%len(ids)] }
	wrapped := func() bool {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.wrapEnd != 0
	}
	// Hold the first checkpoint while a commit lands behind its snapshot,
	// so that it leaves that commit live and the tail wraps behind it.
	g.armed.Store(true)
	for !p.checkpointing() {
		v++
		if err := p.WritePage(next(), fill(v)); err != nil {
			t.Fatal(err)
		}
		want[next()] = v
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	<-g.reached
	v++
	if err := p.WritePage(next(), fill(v)); err != nil {
		t.Fatal(err)
	}
	want[next()] = v
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	p.waitCheckpoint()
	for !wrapped() {
		if err := commit(next()); err != nil {
			t.Fatal(err)
		}
	}
	// Break the page file and commit until the wrapped ring is full.
	broken.Store(true)
	id := next()
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("the ring never filled")
		}
		if err := commit(id); err != nil {
			break
		}
	}
	if !wrapped() {
		t.Fatal("the ring filled unwrapped: while checkpoints fail an unwrapped log grows")
	}
	// 40 more commits: one attempt each time the backoff runs out, and the
	// next backoff twice as long.
	p.mu.RLock()
	wait, backoff := p.ckptWait, p.ckptBackoff
	p.mu.RUnlock()
	var expect uint64
	for i := 0; i < 40; i++ {
		if wait > 0 {
			wait--
		} else {
			expect++
			backoff = min(max(1, 2*backoff), maxCheckpointBackoff)
			wait = backoff
		}
	}
	before := attempts.Load()
	for i := 0; i < 40; i++ {
		if err := commit(id); err == nil {
			t.Fatalf("commit %d into a full ring was acknowledged while the page file fails", i)
		}
	}
	if n := attempts.Load() - before; n != expect || n == 0 {
		t.Fatalf("%d checkpoints attempted over 40 commits into a full ring; want %d, backing off", n, expect)
	}
	broken.Store(false)
	for i := 0; commit(id) != nil; i++ {
		if i == 2*maxCheckpointBackoff {
			t.Fatal("commits kept failing after the page file was mended")
		}
	}
	if err := p.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make([]byte, 512)
	for id, b := range want {
		if err := p2.ReadPage(id, got); err != nil || !bytes.Equal(got, fill(b)) {
			t.Fatalf("page %d after recovery: %#x (%v), want the acknowledged %#x", id, got[0], err, b)
		}
	}
}

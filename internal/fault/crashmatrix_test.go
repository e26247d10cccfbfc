package fault_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/wal"
)

// The crash matrix: run one WAL commit, and the checkpoint that follows it,
// under an op-counting fault injector to discover how many I/O boundaries
// they have, then re-run the identical workload once per boundary with a
// simulated crash at exactly that operation. After every crash the store is
// reopened (running WAL recovery) and must (a) pass a full Verify scrub and
// (b) contain exactly the acknowledged commits, or those plus the one that
// was in flight — never fewer, never a hybrid.
//
// The batch variant sweeps one Store.Update instead of one insert + Flush:
// an insert, a delete and a replace on different pages, committed as one WAL
// batch, which must land whole or not at all. It also checks that the
// read-only open of a crashed store sees what recovery makes of it, and that
// a point-in-time restore splits exactly at the batch's LSN.
//
// Three geometries. "eager" is a store so small that the log outgrows its
// share of the page file with every commit, so the commit's Sync starts a
// checkpoint, which Close waits for. "lazy" is a store large enough that the
// log already holds two committed, unapplied batches when the swept commit
// arrives, and the checkpoint is the one Close runs — the same sequence over
// three batches' pages. "overlap" is the lazy store with a checkpoint of the
// two batches begun first and held between its page writes and its page
// fsync: the swept commit is staged and acknowledged while it is held, then
// the checkpoint's fsync, start record and start-record fsync run, then
// Close's checkpoint of the swept batch.

const cmPageSize = 512

// nightlyScale widens a workload in the nightly CI profile, which trades
// time for more I/O boundaries per crash sweep.
func nightlyScale(normal, nightly int) int {
	if os.Getenv("AXML_NIGHTLY") != "" {
		return nightly
	}
	return normal
}

// geometry sizes one crash-matrix store: how many orders the seed document
// has, how the bulk load chops it into ranges, and how many commits are
// acknowledged (and left in the log) before the swept one.
type geometry struct {
	orders         int
	maxRangeTokens int
	prefix         int
	batch          bool // the swept commit is one multi-op Update
	overlap        bool // the swept commit runs while a checkpoint of the prefix is held
}

func eagerGeometry() geometry { return geometry{orders: nightlyScale(40, 120)} }

func lazyGeometry() geometry {
	return geometry{orders: nightlyScale(4000, 8000), maxRangeTokens: 64, prefix: 2}
}

func overlapGeometry() geometry {
	g := lazyGeometry()
	g.overlap = true
	return g
}

// holdGate holds the page file's fsync of the checkpoint it is armed for,
// from above the fault injector, so the fsync counts as an I/O boundary
// only once released.
type holdGate struct {
	armed            atomic.Bool
	reached, release chan struct{}
}

type heldPager struct {
	wal.InnerPager
	g *holdGate
}

func (p heldPager) Sync() error {
	if p.g.armed.CompareAndSwap(true, false) {
		close(p.g.reached)
		<-p.g.release
	}
	return p.InnerPager.Sync()
}

func seedDocOf(orders int) string {
	var b strings.Builder
	b.WriteString("<orders>")
	for i := 0; i < orders; i++ {
		fmt.Fprintf(&b, `<order id="%d"><item>part-%d</item></order>`, i, i)
	}
	b.WriteString("</orders>")
	return b.String()
}

func seedDoc() string { return seedDocOf(eagerGeometry().orders) }

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
}

// buildBase creates a committed, checkpointed store file holding the seed
// document and returns its serialized form after 0, 1, … prefix+1 test
// mutations.
func buildBase(t *testing.T, db string, g geometry) []string {
	t.Helper()
	wp, err := wal.Open(db, cmPageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Pager: wp, PageSize: cmPageSize, MaxRangeTokens: g.maxRangeTokens})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := axml.LoadXMLString(s, seedDocOf(g.orders)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Apply the mutations to a throwaway copy to learn the target states.
	scratch := db + ".scratch"
	copyFile(t, db, scratch)
	wp2, err := wal.Open(scratch, cmPageSize)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Reopen(core.Config{PageSize: cmPageSize}, wp2, 1)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]string, 0, g.prefix+2)
	for i := 0; ; i++ {
		xml, err := s2.XMLString()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, xml)
		if i > g.prefix {
			break
		}
		if err := mutate(s2, g, i); err != nil {
			t.Fatal(err)
		}
	}
	s2.Close()
	os.Remove(scratch)
	os.Remove(scratch + ".wal")
	return states
}

// mutate applies the i-th test mutation: a new order, as last content of the
// root element in the eager geometry and after an order a fraction of the
// way through the document in the lazy one, so that the batches waiting in
// the log dirty different pages and the checkpoint has several to write.
func mutate(s *core.Store, g geometry, i int) error {
	if g.batch && i == g.prefix {
		return mutateBatch(s, g)
	}
	// note-i is a name no commit before this one used: the swept commit
	// carries the name dictionary's growth in its batch.
	frag, err := axml.ParseFragment(fmt.Sprintf(`<order id="new-%d"><item>widget</item><note-%d/></order>`, i, i))
	if err != nil {
		return err
	}
	if g.prefix == 0 {
		root, ok, err := s.FirstNodeID()
		if err != nil || !ok {
			return fmt.Errorf("no root: %v", err)
		}
		_, err = s.InsertIntoLast(root, frag)
		return err
	}
	anchor, ok, err := axml.QueryFirst(s, fmt.Sprintf(`/orders/order[@id="%d"]`, (i+1)*g.orders/(g.prefix+2)))
	if err != nil || !ok {
		return fmt.Errorf("no anchor order: %v", err)
	}
	_, err = s.InsertAfter(anchor, frag)
	return err
}

// mutateBatch is the batch variant's swept commit: one Update that inserts
// an order, deletes another and replaces a third, an eighth, three eighths
// and seven eighths of the way through the document, so the three dirty
// different pages.
func mutateBatch(s *core.Store, g geometry) error {
	var ids [3]core.NodeID
	for i, n := range []int{g.orders / 8, 3 * g.orders / 8, 7 * g.orders / 8} {
		id, ok, err := axml.QueryFirst(s, fmt.Sprintf(`/orders/order[@id="%d"]`, n))
		if err != nil || !ok {
			return fmt.Errorf("no order %d: %v", n, err)
		}
		ids[i] = id
	}
	ins, err := axml.ParseFragment(`<order id="batch-new"><item>widget</item></order>`)
	if err != nil {
		return err
	}
	rep, err := axml.ParseFragment(`<order id="batch-replaced"><item>gadget</item><batch-note/></order>`)
	if err != nil {
		return err
	}
	return s.Update(context.Background(), func(b *core.Batch) error {
		if _, err := b.InsertAfter(ids[0], ins); err != nil {
			return err
		}
		if err := b.DeleteNode(ids[1]); err != nil {
			return err
		}
		_, err := b.ReplaceNode(ids[2], rep)
		return err
	})
}

// crashRun is what one faulty run of the matrix workload observed.
type crashRun struct {
	inj      *fault.Injector
	ops      int   // I/O boundaries of the swept commit + close
	acked    int   // flushes that returned nil, the prefix included
	deltas   int   // delta records among the batches appended to the log
	flushErr error // the swept mutate+flush
	heldErr  error // the overlap geometry's held checkpoint
	closeErr error
}

// deltaCounter counts the delta records in every batch appended to the log
// (the journal appends a batch with one write).
type deltaCounter struct {
	wal.File
	n *int
}

func (f deltaCounter) WriteAt(p []byte, off int64) (int, error) {
	count := func(pagestore.PageID, []byte) error { *f.n++; return nil }
	wal.ParseSegment("log batch", p, cmPageSize, count)
	return f.File.WriteAt(p, off)
}

// runFaulty reopens db behind a fault-injected WAL, acknowledges g.prefix
// commits with no fault armed, then arms a crash crashAt mutating operations
// ahead (0 = never) and runs the swept sequence: one more mutate + Flush —
// in the overlap geometry with a checkpoint held around it, released after
// it — then Close with its checkpoint.
func runFaulty(t *testing.T, db string, g geometry, cfg fault.Config, crashAt int) crashRun {
	t.Helper()
	inj := fault.NewInjector(cfg)
	r := crashRun{inj: inj, acked: g.prefix}
	gate := &holdGate{reached: make(chan struct{}), release: make(chan struct{})}
	wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { return heldPager{fault.NewPager(inj, ip), gate} },
		WrapLog:   func(f wal.File) wal.File { return fault.NewFile(inj, deltaCounter{f, &r.deltas}) },
		Retries:   -1, // crash errors are permanent; don't slow the sweep
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Reopen(core.Config{PageSize: cmPageSize}, wp, 1)
	if err != nil {
		t.Fatal(err) // reopen only reads; no faults can fire here
	}
	for i := 0; i < g.prefix; i++ {
		if err := mutate(s, g, i); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); g.prefix > 0 && (st.WALCheckpoints != 0 || st.WALCommits != uint64(g.prefix) || st.WALLogBytes == 0) {
		t.Fatalf("lazy geometry too small: %d checkpoints, %d commits, %d log bytes after the prefix",
			st.WALCheckpoints, st.WALCommits, st.WALLogBytes)
	}
	before := inj.Ops()
	if crashAt > 0 {
		inj.ArmCrash(crashAt)
	}
	held := make(chan error, 1)
	if g.overlap {
		gate.armed.Store(true)
		go func() { held <- wp.Checkpoint() }()
		select {
		case <-gate.reached:
		case err := <-held: // a crash in its page writes ended it before the fsync
			gate.armed.Store(false)
			held <- err
		}
	}
	r.flushErr = mutate(s, g, g.prefix)
	if ferr := s.Flush(); r.flushErr == nil {
		r.flushErr = ferr
	}
	if r.flushErr == nil {
		r.acked++
	}
	if g.overlap {
		if gate.armed.Load() {
			t.Fatal("the held checkpoint neither reached its page fsync nor ended")
		}
		close(gate.release)
		r.heldErr = <-held
	}
	r.closeErr = s.Close() // after a crash this fails too; the files still close
	r.ops = inj.Ops() - before
	return r
}

// validate reopens db cleanly (recovery runs), scrubs it, and returns the
// recovered document.
func validate(t *testing.T, db string) string {
	t.Helper()
	wp, err := wal.Open(db, cmPageSize)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	s, err := core.Reopen(core.Config{PageSize: cmPageSize}, wp, 1)
	if err != nil {
		t.Fatalf("recovery reopen: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatalf("post-recovery verify: %v", err)
	}
	xml, err := s.XMLString()
	if err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
	return xml
}

// readOnlyXML opens db read-only, as a crash left it, and returns the
// document it sees.
func readOnlyXML(t *testing.T, db string) string {
	t.Helper()
	s, err := axml.ReopenFileReadOnly(db, axml.Config{PageSize: cmPageSize})
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	defer s.Close()
	xml, err := s.XMLString()
	if err != nil {
		t.Fatalf("read-only read: %v", err)
	}
	return xml
}

func runCrashMatrix(t *testing.T, g geometry, torn bool) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.db")
	states := buildBase(t, base, g)

	// Counting run: no faults, discover N — the number of I/O boundaries
	// in the mutate + flush + close sequence — at runtime.
	countDB := filepath.Join(dir, "count.db")
	copyFile(t, base, countDB)
	count := runFaulty(t, countDB, g, fault.Config{}, 0)
	if count.flushErr != nil || count.heldErr != nil || count.closeErr != nil {
		t.Fatalf("counting run: flush %v, held checkpoint %v, close %v", count.flushErr, count.heldErr, count.closeErr)
	}
	n := count.ops
	if n < 6 {
		// At minimum: log write, log sync, one page write, page sync,
		// truncate, sync. Fewer means the op accounting broke.
		t.Fatalf("counting run saw only %d ops", n)
	}
	// Eager: every commit checkpoints, so every page record is a page's
	// first since a checkpoint and must be a full image. Lazy: the log the
	// sweep recovers from must hold deltas, or the new path goes untested.
	if (g.prefix == 0) != (count.deltas == 0) {
		t.Fatalf("counting run logged %d delta records (prefix=%d)", count.deltas, g.prefix)
	}
	t.Logf("crash matrix: %d I/O boundaries, %d delta records (prefix=%d overlap=%v torn=%v)", n, count.deltas, g.prefix, g.overlap, torn)

	sawOld, sawNew, sawAckedCrash := false, false, false
	for k := 1; k <= n; k++ {
		db := filepath.Join(dir, fmt.Sprintf("crash-%03d.db", k))
		copyFile(t, base, db)
		r := runFaulty(t, db, g, fault.Config{Seed: int64(k), TornWrite: torn}, k)
		if !r.inj.Crashed() {
			t.Fatalf("crash at op %d never fired (flush %v, close %v)", k, r.flushErr, r.closeErr)
		}
		ro := readOnlyXML(t, db)
		xml := validate(t, db)
		if ro != xml {
			t.Fatalf("crash at op %d: the read-only open sees\n%s\nrecovery made\n%s", k, ro, xml)
		}
		switch {
		case xml == states[r.acked]:
			if r.acked == g.prefix {
				sawOld = true
			} else {
				sawNew, sawAckedCrash = true, true
			}
		case r.acked == g.prefix && xml == states[g.prefix+1]:
			sawNew = true // in flight when the crash hit, and it landed
		default:
			t.Fatalf("crash at op %d: %d commits acknowledged, recovered document is neither that state nor the next:\n%s", k, r.acked, xml)
		}
		os.Remove(db)
		os.Remove(db + ".wal")
	}
	if !sawOld {
		t.Error("no crash point preserved the old state (early crashes should)")
	}
	if !sawNew {
		t.Error("no crash point reached the new state (late crashes should)")
	}
	if !sawAckedCrash {
		t.Error("no crash point fell after the acknowledgement (crashes in the checkpoint should)")
	}
}

func TestCrashMatrix(t *testing.T) {
	t.Run("eager", func(t *testing.T) { runCrashMatrix(t, eagerGeometry(), false) })
	t.Run("lazy", func(t *testing.T) { runCrashMatrix(t, lazyGeometry(), false) })
	t.Run("overlap", func(t *testing.T) { runCrashMatrix(t, overlapGeometry(), false) })
}

func TestCrashMatrixTornWrites(t *testing.T) {
	t.Run("eager", func(t *testing.T) { runCrashMatrix(t, eagerGeometry(), true) })
	t.Run("lazy", func(t *testing.T) { runCrashMatrix(t, lazyGeometry(), true) })
	t.Run("overlap", func(t *testing.T) { runCrashMatrix(t, overlapGeometry(), true) })
}

// TestBatchCrashMatrix sweeps a crash over every I/O boundary of one
// multi-op Update's commit, in all three geometries, with plain and torn
// writes, then restores the batch's archive to the LSN before it and to its
// own.
func TestBatchCrashMatrix(t *testing.T) {
	for _, geo := range []struct {
		name string
		g    geometry
	}{{"eager", eagerGeometry()}, {"lazy", lazyGeometry()}, {"overlap", overlapGeometry()}} {
		g := geo.g
		g.batch = true
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/torn=%v", geo.name, torn), func(t *testing.T) { runCrashMatrix(t, g, torn) })
		}
		if !g.overlap {
			t.Run(geo.name+"/pitr", func(t *testing.T) { batchPITR(t, g) })
		}
	}
}

// batchPITR runs the batch variant's workload on an archiving store with a
// backup cut before the swept batch, then restores to the batch's LSN−1
// (none of it) and to its LSN (all of it).
func batchPITR(t *testing.T, g geometry) {
	dir := t.TempDir()
	db, archive, backup := filepath.Join(dir, "pitr.db"), filepath.Join(dir, "archive"), filepath.Join(dir, "backup.db")
	states := buildBase(t, db, g)
	wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{ArchiveDir: archive})
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
	if _, err := s.BackupTo(backup); err != nil {
		t.Fatal(err)
	}
	if err := mutate(s, g, g.prefix); err != nil {
		t.Fatal(err)
	}
	lsn := s.Stats().ArchiveLSN
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lsn  uint64
		want string
	}{{lsn - 1, states[g.prefix]}, {lsn, states[g.prefix+1]}} {
		dest := filepath.Join(dir, fmt.Sprintf("restored-%d.db", tc.lsn))
		from := archive
		if tc.lsn == 0 { // target 0 means the newest segment; the base alone is LSN 0
			from = ""
		}
		if _, err := axml.RestoreFile(backup, dest, from, tc.lsn); err != nil {
			t.Fatal(err)
		}
		if got := validate(t, dest); got != tc.want {
			t.Fatalf("restore to LSN %d (the batch is %d) holds neither the state before the batch nor the one after:\n%s", tc.lsn, lsn, got)
		}
	}
}

// TestTransientCommitRetry: a transient injected failure inside the WAL
// commit path is absorbed by the bounded retry — the flush succeeds.
func TestTransientCommitRetry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transient bool
		wantOK    bool
	}{
		{"transient-retried", true, true},
		{"permanent-fails", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := filepath.Join(t.TempDir(), "t.db")
			// Write 1 is the start record Open writes; write 2 is the
			// commit's log append.
			inj := fault.NewInjector(fault.Config{FailWrite: 2, Transient: tc.transient})
			wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{
				WrapPager: func(ip wal.InnerPager) wal.InnerPager { return fault.NewPager(inj, ip) },
				WrapLog:   func(f wal.File) wal.File { return fault.NewFile(inj, f) },
				Backoff:   time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Open(core.Config{Pager: wp, PageSize: cmPageSize})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := axml.LoadXMLString(s, seedDoc()); err != nil {
				t.Fatal(err)
			}
			err = s.Flush()
			if tc.wantOK {
				if err != nil {
					t.Fatalf("transient fault not retried: %v", err)
				}
				if err := s.Verify(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("flush: got %v, want ErrInjected", err)
				}
				// A failed commit degrades the store to read-only.
				frag, _ := axml.ParseFragment(`<x/>`)
				if _, err := s.Append(frag); !errors.Is(err, core.ErrReadOnly) {
					t.Fatalf("append after failed commit: got %v, want ErrReadOnly", err)
				}
				s.Close()
			}
		})
	}
}

// TestBitFlipDegradesToReadOnly: a silent single-bit flip on a page write
// is caught by the checksum on the next uncached read; the store reports
// ErrCorruptPage, latches read-only, and Verify pinpoints the damage.
func TestBitFlipDegradesToReadOnly(t *testing.T) {
	db := filepath.Join(t.TempDir(), "b.db")
	fp, err := pagestore.OpenFilePager(db, cmPageSize)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.Config{Seed: 11, FlipBitPage: 5})
	p := fault.NewPager(inj, fp)
	// A 4-frame pool over a multi-page document forces page 5 (an overflow
	// page of the single bulk-loaded range) to be written once, evicted,
	// and re-read from the corrupted file image.
	s, err := core.Open(core.Config{Pager: p, PageSize: cmPageSize, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := axml.LoadXMLString(s, seedDoc()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = s.XMLString()
	if !errors.Is(err, pagestore.ErrCorruptPage) {
		t.Fatalf("read over flipped page: got %v, want ErrCorruptPage", err)
	}
	if ro, cause := s.ReadOnly(); !ro {
		t.Fatal("store did not degrade to read-only")
	} else if !errors.Is(cause, pagestore.ErrCorruptPage) {
		t.Fatalf("degrade cause: %v", cause)
	}
	frag, _ := axml.ParseFragment(`<x/>`)
	if _, err := s.Append(frag); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("append on degraded store: got %v, want ErrReadOnly", err)
	}
	err = s.Verify()
	if !errors.Is(err, pagestore.ErrCorruptPage) {
		t.Fatalf("verify: got %v, want ErrCorruptPage", err)
	}
	if !strings.Contains(err.Error(), "page 5") {
		t.Fatalf("verify does not name the corrupt page: %v", err)
	}
	s.Close()
}

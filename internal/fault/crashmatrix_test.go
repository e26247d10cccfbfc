package fault_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
// Two geometries. "eager" is a store so small that the log outgrows its
// share of the page file with every commit, so the checkpoint runs inside
// the commit's Sync. "lazy" is a store large enough that the log already
// holds two committed, unapplied batches when the swept commit arrives, and
// the checkpoint is the one Close runs — the same sequence over three
// batches' pages.

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
}

func eagerGeometry() geometry { return geometry{orders: nightlyScale(40, 120)} }

func lazyGeometry() geometry {
	return geometry{orders: nightlyScale(4000, 8000), maxRangeTokens: 64, prefix: 2}
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
	frag, err := axml.ParseFragment(fmt.Sprintf(`<order id="new-%d"><item>widget</item></order>`, i))
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

// crashRun is what one faulty run of the matrix workload observed.
type crashRun struct {
	inj      *fault.Injector
	ops      int   // I/O boundaries of the swept commit + close
	acked    int   // flushes that returned nil, the prefix included
	deltas   int   // delta records among the batches appended to the log
	flushErr error // the swept mutate+flush
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
// ahead (0 = never) and runs the swept sequence: one more mutate + Flush,
// then Close with its checkpoint.
func runFaulty(t *testing.T, db string, g geometry, cfg fault.Config, crashAt int) crashRun {
	t.Helper()
	inj := fault.NewInjector(cfg)
	r := crashRun{inj: inj, acked: g.prefix}
	wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { return fault.NewPager(inj, ip) },
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
	r.flushErr = mutate(s, g, g.prefix)
	if ferr := s.Flush(); r.flushErr == nil {
		r.flushErr = ferr
	}
	if r.flushErr == nil {
		r.acked++
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

func runCrashMatrix(t *testing.T, g geometry, torn bool) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.db")
	states := buildBase(t, base, g)

	// Counting run: no faults, discover N — the number of I/O boundaries
	// in the mutate + flush + close sequence — at runtime.
	countDB := filepath.Join(dir, "count.db")
	copyFile(t, base, countDB)
	count := runFaulty(t, countDB, g, fault.Config{}, 0)
	if count.flushErr != nil || count.closeErr != nil {
		t.Fatalf("counting run: flush %v, close %v", count.flushErr, count.closeErr)
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
	t.Logf("crash matrix: %d I/O boundaries, %d delta records (prefix=%d torn=%v)", n, count.deltas, g.prefix, torn)

	sawOld, sawNew, sawAckedCrash := false, false, false
	for k := 1; k <= n; k++ {
		db := filepath.Join(dir, fmt.Sprintf("crash-%03d.db", k))
		copyFile(t, base, db)
		r := runFaulty(t, db, g, fault.Config{Seed: int64(k), TornWrite: torn}, k)
		if !r.inj.Crashed() {
			t.Fatalf("crash at op %d never fired (flush %v, close %v)", k, r.flushErr, r.closeErr)
		}
		switch xml := validate(t, db); {
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
}

func TestCrashMatrixTornWrites(t *testing.T) {
	t.Run("eager", func(t *testing.T) { runCrashMatrix(t, eagerGeometry(), true) })
	t.Run("lazy", func(t *testing.T) { runCrashMatrix(t, lazyGeometry(), true) })
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
			inj := fault.NewInjector(fault.Config{FailWrite: 1, Transient: tc.transient})
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

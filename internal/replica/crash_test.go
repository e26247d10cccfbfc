// The crash matrix, extended to the follower apply path: run one full
// catch-up (bootstrap from a backup plus every shipped segment) under an
// op-counting fault injector to discover its I/O boundaries, then re-run
// it once per boundary with a simulated crash at exactly that operation.
// After every crash the follower is reopened and must sit at a
// well-defined LSN — its served document exactly equals the PITR restore
// of that same LSN — pass a full Verify scrub, and then catch up to the
// source's head.
package replica_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/replica"
	"repro/internal/wal"
)

// crashFixture is the shared source side of the sweep: a finished primary
// history (base backup + segment archive) and the exact document at every
// reachable LSN.
type crashFixture struct {
	base     string
	arch     string
	baseLSN  uint64
	headLSN  uint64
	expected map[uint64]string
	deltas   int // delta records in the segments past the base
}

func nightlyScale(normal, nightly int) int {
	if os.Getenv("AXML_NIGHTLY") != "" {
		return nightly
	}
	return normal
}

// buildCrashFixture writes the primary history once. The per-LSN expected
// documents come from PITR restores of the same base + archive, so the
// sweep also cross-checks that segment apply and restore replay agree.
func buildCrashFixture(t *testing.T, dir string) *crashFixture {
	t.Helper()
	p := newPaddedPrimary(t, dir, 400)
	p.commit()
	base := filepath.Join(dir, "base.bak")
	meta := p.backup(base)
	for i := 0; i < nightlyScale(3, 10); i++ {
		p.commit()
	}
	p.close()

	head, err := wal.MaxArchivedLSN(p.arch)
	if err != nil {
		t.Fatal(err)
	}
	if head <= meta.LSN {
		t.Fatalf("no history beyond the base (head %d, base %d)", head, meta.LSN)
	}
	fx := &crashFixture{
		base: base, arch: p.arch,
		baseLSN: meta.LSN, headLSN: head,
		expected: make(map[uint64]string),
		deltas:   countDeltas(t, p.arch, meta.LSN+1, head),
	}
	if fx.deltas == 0 {
		t.Fatalf("segments %d..%d hold no delta record: the sweep would not apply one", meta.LSN+1, head)
	}
	for lsn := meta.LSN; lsn <= head; lsn++ {
		dest := filepath.Join(dir, fmt.Sprintf("expect-%d.db", lsn))
		if _, err := recov.Restore(base, dest, recov.RestoreOptions{ArchiveDir: p.arch, TargetLSN: lsn}); err != nil {
			t.Fatalf("restore to LSN %d: %v", lsn, err)
		}
		fx.expected[lsn] = xmlAt(t, dest)
		os.Remove(dest)
	}
	return fx
}

// countDeltas counts the delta records in archived segments from..to.
func countDeltas(t *testing.T, arch string, from, to uint64) int {
	t.Helper()
	n := 0
	count := func(pagestore.PageID, []byte) error { n++; return nil }
	for lsn := from; lsn <= to; lsn++ {
		if _, _, err := wal.ReadSegment(filepath.Join(arch, wal.SegmentFileName(lsn)), pgSize, count); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func xmlAt(t *testing.T, db string) string {
	t.Helper()
	s, err := axml.ReopenFileReadOnly(db, axml.Config{Mode: axml.RangeOnly, PageSize: pgSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// runFollowerFaulty bootstraps and catches up a follower at db with every
// apply-path file wrapped by a fault injector. It returns the injector,
// the op count after the catch-up attempt, and the first error.
func runFollowerFaulty(fx *crashFixture, db string, cfg fault.Config) (*fault.Injector, int, error) {
	inj := fault.NewInjector(cfg)
	wrap := func(f wal.File) wal.File { return fault.NewFile(inj, f) }
	f, err := replica.Open(db, replica.NewDirTransport(fx.arch, replica.DirTransportOptions{}),
		replica.Options{
			Store: testCfg(), Base: fx.base, ArchiveDir: db + ".segments",
			Wrap: wrap, FetchRetries: -1,
		})
	if err != nil {
		return inj, inj.Ops(), err
	}
	err = f.CatchUp(context.Background())
	ops := inj.Ops()
	f.Close() // post-crash this fails too; the raw files still close
	return inj, ops, err
}

// validateFollower reopens the crashed follower cleanly and pins the
// recovery contract: a well-defined LSN whose document matches the PITR
// restore of that LSN, a clean Verify, then full convergence.
func validateFollower(t *testing.T, fx *crashFixture, db string, k int) uint64 {
	t.Helper()
	f, err := replica.Open(db, replica.NewDirTransport(fx.arch, replica.DirTransportOptions{}),
		replica.Options{Store: testCfg(), Base: fx.base, ArchiveDir: db + ".segments"})
	if err != nil {
		t.Fatalf("crash at op %d: recovery open: %v", k, err)
	}
	defer f.Close()

	st := f.Stats()
	if st.AppliedLSN < fx.baseLSN || st.AppliedLSN > fx.headLSN {
		t.Fatalf("crash at op %d: recovered to LSN %d, outside [%d, %d]", k, st.AppliedLSN, fx.baseLSN, fx.headLSN)
	}
	want, ok := fx.expected[st.AppliedLSN]
	if !ok {
		t.Fatalf("crash at op %d: recovered to unexpected LSN %d", k, st.AppliedLSN)
	}
	var got string
	if err := f.Read(replica.ReadOptions{}, func(s *core.Store) error {
		if verr := s.Verify(); verr != nil {
			return fmt.Errorf("verify: %w", verr)
		}
		var rerr error
		got, rerr = s.XMLString()
		return rerr
	}); err != nil {
		t.Fatalf("crash at op %d: post-recovery read at LSN %d: %v", k, st.AppliedLSN, err)
	}
	if got != want {
		t.Fatalf("crash at op %d: document at LSN %d is not the LSN-%d state — the follower is at no well-defined commit", k, st.AppliedLSN, st.AppliedLSN)
	}

	// And the crash cost nothing but time: the follower converges.
	if err := f.CatchUp(context.Background()); err != nil {
		t.Fatalf("crash at op %d: catch-up after recovery: %v", k, err)
	}
	cst := f.Stats()
	if cst.AppliedLSN != fx.headLSN {
		t.Fatalf("crash at op %d: converged to LSN %d, want %d", k, cst.AppliedLSN, fx.headLSN)
	}
	if err := f.Read(replica.ReadOptions{MinLSN: fx.headLSN}, func(s *core.Store) error {
		x, rerr := s.XMLString()
		if rerr == nil && x != fx.expected[fx.headLSN] {
			rerr = fmt.Errorf("converged document differs from the head state")
		}
		return rerr
	}); err != nil {
		t.Fatalf("crash at op %d: converged read: %v", k, err)
	}
	return st.AppliedLSN
}

func runReplicaCrashMatrix(t *testing.T, torn bool) {
	dir := t.TempDir()
	fx := buildCrashFixture(t, dir)

	// Counting run: no faults; discover the N I/O boundaries of
	// bootstrap-plus-catch-up at runtime.
	countDB := filepath.Join(dir, "count.db")
	_, n, err := runFollowerFaulty(fx, countDB, fault.Config{})
	if err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if n < 8 {
		// At minimum: restore staging writes+sync, two sidecar writes+syncs,
		// one local segment write+sync, page write(s)+sync. Fewer means the
		// apply path stopped going through the wrapped files.
		t.Fatalf("counting run saw only %d ops", n)
	}
	t.Logf("replica crash matrix: %d I/O boundaries, %d delta records shipped (torn=%v)", n, fx.deltas, torn)

	sawBase, sawHead, sawMid := false, false, false
	for k := 1; k <= n; k++ {
		db := filepath.Join(dir, fmt.Sprintf("crash-%03d.db", k))
		inj, _, err := runFollowerFaulty(fx, db, fault.Config{
			Seed:      int64(k),
			CrashAtOp: k,
			TornWrite: torn,
		})
		if err == nil {
			t.Fatalf("crash at op %d: catch-up succeeded, crash never fired", k)
		}
		if !inj.Crashed() {
			t.Fatalf("crash at op %d: failed with %v but injector not crashed", k, err)
		}
		switch lsn := validateFollower(t, fx, db, k); {
		case lsn == fx.baseLSN:
			sawBase = true
		case lsn == fx.headLSN:
			sawHead = true
		default:
			sawMid = true
		}
	}
	if !sawBase {
		t.Error("no crash point recovered to the base LSN (early crashes should)")
	}
	if !sawHead && !sawMid {
		t.Error("no crash point recovered past the base (late crashes should)")
	}
}

func TestReplicaCrashMatrix(t *testing.T) {
	runReplicaCrashMatrix(t, false)
}

func TestReplicaCrashMatrixTornWrites(t *testing.T) {
	runReplicaCrashMatrix(t, true)
}

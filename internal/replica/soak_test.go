// Replication chaos soak: one writer, two followers tailing it through a
// fault-injected transport (latency + transient read errors) while the
// apply path suffers ENOSPC episodes and random mid-apply kills. The
// followers must converge to the writer's head, never stall and never
// serve a wrong document, and a follower promoted after the writer dies
// must pass a full Verify, accept writes, and carry the complete PITR
// history.
//
// The default run is a couple of seconds; AXML_NIGHTLY=1 widens the
// workload and the kill count for the nightly CI profile.
package replica_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	recov "repro/internal/recover"
	"repro/internal/replica"
	"repro/internal/wal"
)

// soakFollower bundles a follower with its per-generation injectors (a
// killed follower restarts with fresh ones — the old injector stays
// latched crashed forever, like a dead process).
type soakFollower struct {
	db    string
	arch  string
	f     *replica.Follower
	apply *fault.Injector
	wire  *fault.Injector
}

func openSoakFollower(t *testing.T, db, arch, srcArch, base string) *soakFollower {
	t.Helper()
	sf := &soakFollower{db: db, arch: arch}
	sf.apply = fault.NewInjector(fault.Config{})
	sf.wire = fault.NewInjector(fault.Config{FailRead: 13, Transient: true})
	sf.wire.ArmLatency(100 * time.Microsecond)
	tr := replica.NewDirTransport(srcArch, replica.DirTransportOptions{
		WrapFile: func(f wal.File) wal.File { return fault.NewFile(sf.wire, f) },
		Backoff:  100 * time.Microsecond,
	})
	f, err := replica.Open(db, tr, replica.Options{
		Store:        testCfg(),
		Base:         base,
		ArchiveDir:   arch,
		PollInterval: 2 * time.Millisecond,
		FetchBackoff: 100 * time.Microsecond,
		Wrap:         func(f wal.File) wal.File { return fault.NewFile(sf.apply, f) },
	})
	if err != nil {
		t.Fatalf("open follower %s: %v", db, err)
	}
	sf.f = f
	f.Start()
	return sf
}

// kill simulates a mid-apply crash (the injector fails every I/O from a
// random upcoming op) and then restarts the follower as a new process
// would: reopen from the durable sidecar, fresh injectors.
func (sf *soakFollower) kill(t *testing.T, rng *rand.Rand, srcArch, base string) {
	t.Helper()
	sf.apply.ArmCrash(1 + rng.Intn(24))
	time.Sleep(4 * time.Millisecond) // let the poll loop run into the crash
	if err := sf.f.Close(); err != nil {
		// Close flushes nothing; its error is the crashed injector talking.
		t.Logf("close of killed follower: %v", err)
	}
	*sf = *openSoakFollower(t, sf.db, sf.arch, srcArch, base)
}

func TestReplicaChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	p := newPaddedPrimary(t, dir, 400) // its segments carry delta records
	p.commit()
	base := filepath.Join(dir, "base.bak")
	meta := p.backup(base)

	var followers []*soakFollower
	for i := 0; i < 2; i++ {
		followers = append(followers, openSoakFollower(t,
			filepath.Join(dir, fmt.Sprintf("follower%d.db", i)),
			filepath.Join(dir, fmt.Sprintf("follower%d-segments", i)),
			p.arch, base))
	}

	rounds := nightlyScale(12, 80)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ {
			p.commit()
		}
		switch round % 4 {
		case 1: // ENOSPC episode on one follower's apply path
			sf := followers[rng.Intn(len(followers))]
			sf.apply.ArmDiskFull(1 + rng.Intn(6))
			time.Sleep(3 * time.Millisecond)
			sf.apply.FreeSpace()
		case 3: // kill a follower mid-apply and restart it
			followers[rng.Intn(len(followers))].kill(t, rng, p.arch, base)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Quiesce: a last commit, then every follower must converge to the
	// head with chaos disarmed.
	p.commit()
	head := p.wp.LSN()
	want := p.xml()
	if n := countDeltas(t, p.arch, meta.LSN+1, head); n == 0 {
		t.Fatal("the soak shipped no delta record")
	} else {
		t.Logf("soak shipped %d delta records in %d segments", n, head-meta.LSN)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, sf := range followers {
		sf.apply.FreeSpace()
		sf.wire.DisarmLatency()
		for {
			st := sf.f.Stats()
			if st.Stalled {
				t.Fatalf("follower %s stalled during soak: %s", sf.db, st.StallCause)
			}
			if st.AppliedLSN >= head {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never converged: applied %d, head %d (last error: %s)",
					sf.db, st.AppliedLSN, head, st.LastError)
			}
			time.Sleep(2 * time.Millisecond)
		}
		var got string
		if err := sf.f.Read(replica.ReadOptions{MinLSN: head}, func(s *core.Store) error {
			var err error
			got, err = s.XMLString()
			return err
		}); err != nil {
			t.Fatalf("converged read on %s: %v", sf.db, err)
		}
		if got != want {
			t.Fatalf("follower %s converged to a different document", sf.db)
		}
	}

	// Failover: the writer dies (its close commits once more), follower 1
	// catches the tail and is promoted.
	p.close()
	finalHead, err := wal.MaxArchivedLSN(p.arch)
	if err != nil {
		t.Fatal(err)
	}
	promo := followers[1]
	for promo.f.Stats().AppliedLSN < finalHead {
		if time.Now().After(deadline) {
			t.Fatalf("follower %s never caught the final head %d", promo.db, finalHead)
		}
		time.Sleep(2 * time.Millisecond)
	}
	followers[0].f.Close()

	s, err := promo.f.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("promoted store fails verify: %v", err)
	}
	frag, err := axml.ParseFragment(`<promoted/>`)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := axml.Query(s, `/log`)
	if err != nil || len(roots) != 1 {
		t.Fatalf("query promoted root: %v", err)
	}
	if _, err := s.InsertIntoLast(roots[0], frag); err != nil {
		t.Fatalf("insert on promoted store: %v", err)
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

	// The promoted follower owns the full history: base + its archive
	// replays every commit including the post-failover one.
	restored := filepath.Join(dir, "pitr.db")
	if _, err := recov.Restore(base, restored, recov.RestoreOptions{ArchiveDir: promo.arch}); err != nil {
		t.Fatalf("cross-failover restore: %v", err)
	}
	if got := xmlAt(t, restored); got != finalXML {
		t.Fatal("cross-failover restore differs from the promoted document")
	}
	os.Remove(restored)
}

// Automatic failover under real violence: a three-node fleet (subprocess
// primary, two in-process followers) loses its primary to kill -9 in the
// middle of a commit stream while one follower sits behind an active
// network partition. While the partition holds, nobody may promote — the
// quorum rule, demonstrated, not assumed. Once it heals, a follower must
// promote itself within the detection budget, with zero acknowledged
// writes lost; a revived old primary must be fenced with the typed error
// on both the write and the segment-ship path; and every node must Verify
// clean after convergence.
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/server"
)

// Failover protocol timings shared by the parent test and the helper
// subprocess (same binary, same constants). Generous enough for -race on
// loaded CI, short enough that a full failover fits a test.
const (
	foPeersEnv = "AXMLSERVED_FAILOVER_PEERS"
	foLeaseIv  = 100 * time.Millisecond
	foLeaseTO  = 600 * time.Millisecond
)

func foStoreCfg() core.Config {
	return core.Config{Mode: core.RangePartial, PageSize: 512}
}

func foPeerOpts() server.ClientOptions {
	// DialTimeout below the coordinator's RPC timeout so a blackholed
	// peer cannot stretch a lease round past the leader's own validity
	// window — a minority partition must not fence the primary's writes.
	return server.ClientOptions{DialTimeout: 250 * time.Millisecond}
}

// TestHelperFailoverPrimary is not a test: it is the fleet primary the
// failover chaos test kills -9. It serves a WAL-backed store with a
// failover coordinator attached (fleet peers from the environment) and a
// base backup published for the followers, until killed.
func TestHelperFailoverPrimary(t *testing.T) {
	dir := os.Getenv(helperEnv)
	peerSpec := os.Getenv(foPeersEnv)
	if dir == "" || peerSpec == "" {
		t.Skip("helper process entry point")
	}
	st, err := axml.OpenFileWAL(filepath.Join(dir, "store.db"), helperCfg(), filepath.Join(dir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.BackupTo(filepath.Join(dir, "base.bak")); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Store: st, ArchiveDir: filepath.Join(dir, "segments"), NodeID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []failover.Peer{{ID: "p", Addr: ln.Addr().String()}}
	for _, kv := range splitList(peerSpec) {
		id, addr, ok := cutEq(kv)
		if !ok {
			t.Fatalf("bad peer spec %q", kv)
		}
		peers = append(peers, failover.Peer{ID: id, Addr: addr})
	}
	if _, err := srv.AttachFailover(failover.Config{
		NodeID:        "p",
		Peers:         peers,
		TermPath:      filepath.Join(dir, "p.term"),
		LeaseInterval: foLeaseIv,
		LeaseTimeout:  foLeaseTO,
	}, server.NewFleetPeers(foPeerOpts())); err != nil {
		t.Fatal(err)
	}
	// Atomic publish so the parent never reads a half-written address.
	tmp := os.Getenv(helperAddrEnv) + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, os.Getenv(helperAddrEnv)); err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln) // until SIGKILL
}

func splitList(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		if i > 0 {
			out = append(out, s[:i])
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

func cutEq(kv string) (string, string, bool) {
	for i := 0; i < len(kv); i++ {
		if kv[i] == '=' {
			return kv[:i], kv[i+1:], i > 0 && i < len(kv)-1
		}
	}
	return "", "", false
}

// gatedPeers simulates the outbound half of a symmetric partition: while
// cut, every lease and vote this node tries to send fails. Combined with
// a blackholed listener (the inbound half) the node is fully isolated.
type gatedPeers struct {
	inner failover.PeerClient
	cut   atomic.Bool
}

func (g *gatedPeers) Lease(ctx context.Context, addr string, req failover.LeaseRequest) (failover.LeaseReply, error) {
	if g.cut.Load() {
		return failover.LeaseReply{}, errors.New("test: outbound partitioned")
	}
	return g.inner.Lease(ctx, addr, req)
}

func (g *gatedPeers) RequestVote(ctx context.Context, addr string, req failover.VoteRequest) (failover.VoteReply, error) {
	if g.cut.Load() {
		return failover.VoteReply{}, errors.New("test: outbound partitioned")
	}
	return g.inner.RequestVote(ctx, addr, req)
}

// foNode is one in-process follower of the chaos fleet.
type foNode struct {
	id      string
	db      string
	archive string
	term    string
	addr    string
	f       *replica.Follower
	srv     *server.Server
}

// termEpoch reads the established epoch from a node's term file.
func termEpoch(t *testing.T, path string) uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var term failover.TermState
	if err := json.Unmarshal(b, &term); err != nil {
		t.Fatalf("term file %s: %v", path, err)
	}
	return term.Epoch
}

// startFoFollower bootstraps a follower from the helper's base backup,
// tailing the shared segment archive (the shared-storage deployment the
// drain-before-promote guarantee is built for), serves it on ln with a
// failover coordinator attached, and keeps its tail loop polling fast.
func startFoFollower(t *testing.T, dir, id string, ln net.Listener, fleet []failover.Peer, gate *gatedPeers) *foNode {
	t.Helper()
	n := &foNode{
		id:      id,
		db:      filepath.Join(dir, id+".db"),
		archive: filepath.Join(dir, id+".archive"),
		term:    filepath.Join(dir, id+".term"),
		addr:    ln.Addr().String(),
	}
	tr := replica.NewDirTransport(filepath.Join(dir, "segments"), replica.DirTransportOptions{})
	f, err := replica.Open(n.db, tr, replica.Options{
		Store:        foStoreCfg(),
		Base:         filepath.Join(dir, "base.bak"),
		ArchiveDir:   n.archive,
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	srv, err := server.New(server.Options{Follower: f, NodeID: id})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	peers := server.NewFleetPeers(foPeerOpts())
	gate.inner = peers
	if _, err := srv.AttachFailover(failover.Config{
		NodeID:        id,
		Peers:         fleet,
		TermPath:      n.term,
		LeaseInterval: foLeaseIv,
		LeaseTimeout:  foLeaseTO,
		Logf:          t.Logf,
	}, gate); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.CloseFailover()
		peers.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		f.Close()
		if ps := srv.PromotedStore(); ps != nil {
			ps.Close()
		}
	})
	n.f, n.srv = f, srv
	return n
}

// TestFailoverChaosKill9PrimaryWithPartition is the acceptance scenario.
func TestFailoverChaosKill9PrimaryWithPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	dir := t.TempDir()
	ctx := context.Background()

	// Follower listeners exist before the helper starts — their addresses
	// go into the helper's fleet list. B's carries the network chaos.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chB := fault.NewNetChaos(11)
	wrappedB := chB.WrapListener(lnB)
	t.Cleanup(chB.Heal)

	// The primary, in a process of its own so kill -9 is real.
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperFailoverPrimary$", "-test.v")
	cmd.Env = append(os.Environ(),
		helperEnv+"="+dir,
		helperAddrEnv+"="+addrFile,
		foPeersEnv+"=a="+lnA.Addr().String()+",b="+lnB.Addr().String(),
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	var paddr string
	waitFor(t, func() bool {
		b, err := os.ReadFile(addrFile)
		if err != nil {
			return false
		}
		paddr = string(b)
		return paddr != ""
	})

	fleet := []failover.Peer{
		{ID: "p", Addr: paddr},
		{ID: "a", Addr: lnA.Addr().String()},
		{ID: "b", Addr: lnB.Addr().String()},
	}
	gateA, gateB := &gatedPeers{}, &gatedPeers{}
	a := startFoFollower(t, dir, "a", lnA, fleet, gateA)
	b := startFoFollower(t, dir, "b", wrappedB, fleet, gateB)

	// The root document, written through the wire. The first writes race
	// the primary's first quorum lease, so retry until it lands.
	c, err := server.Dial(paddr, server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var root core.NodeID
	waitFor(t, func() bool {
		lctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		id, lerr := c.LoadIdem(lctx, `<log/>`, "boot-1")
		if lerr != nil {
			return false
		}
		root = id
		return true
	})

	// Writers hammer the primary. Only acked inserts count; errors mean
	// redial and keep going — the kill, and any transient quorum-lease
	// hiccup, must never stop the attempt stream on their own.
	var acked, attempted atomic.Int64
	stopWrite := make(chan struct{})
	var wg sync.WaitGroup
	for wkr := 0; wkr < 2; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			cc, err := server.Dial(paddr, server.ClientOptions{})
			if err != nil {
				cc = nil
			}
			defer func() {
				if cc != nil {
					cc.Close()
				}
			}()
			for i := 0; ; i++ {
				select {
				case <-stopWrite:
					return
				default:
				}
				if cc == nil {
					nc, derr := server.Dial(paddr, server.ClientOptions{DialTimeout: 500 * time.Millisecond})
					if derr != nil {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					cc = nc
				}
				attempted.Add(1)
				wctx, wcancel := context.WithTimeout(ctx, 2*time.Second)
				_, werr := cc.Insert(wctx, server.InsertLast, root, fmt.Sprintf(`<e w="%d" i="%d"/>`, wkr, i))
				wcancel()
				if werr != nil {
					cc.Close()
					cc = nil
					continue
				}
				acked.Add(1)
				time.Sleep(time.Millisecond)
			}
		}(wkr)
	}

	// Phase 1: a healthy fleet commits and replicates.
	waitFor(t, func() bool { return acked.Load() >= 40 && a.f.Stats().AppliedLSN > 0 })
	waitFor(t, func() bool {
		return a.srv.Failover().Status().LeaderID == "p" && b.srv.Failover().Status().LeaderID == "p"
	})

	// Phase 2: partition follower B, fully and symmetrically. The primary
	// keeps its quorum through A — writes must keep flowing.
	chB.Partition()
	gateB.cut.Store(true)
	ackedAtPartition := acked.Load()
	waitFor(t, func() bool { return acked.Load() >= ackedAtPartition+20 })

	// Phase 3: kill -9 the primary mid-commit-stream, partition active.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	cmd.Wait()
	close(stopWrite)
	wg.Wait()
	ackedN, attemptedN := acked.Load(), attempted.Load()
	t.Logf("kill -9 after %d acked / %d attempted commits (%d acked under the partition)",
		ackedN, attemptedN, ackedN-ackedAtPartition)

	// While the partition holds, promotion is impossible: A cannot reach
	// B for its vote, B cannot send one. Watch long enough for the
	// detector to fire and elections to be attempted — and verify nobody
	// promotes anyway. This is the split-brain half of the guarantee.
	windowEnd := time.Now().Add(2 * time.Second)
	for time.Now().Before(windowEnd) {
		if a.srv.PromotedStore() != nil || b.srv.PromotedStore() != nil {
			t.Fatal("a follower promoted during the partition — quorum rule violated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stA, stB := a.srv.Failover().Status(), b.srv.Failover().Status()
	t.Logf("under partition: a %+v; b %+v", stA, stB)

	// Phase 4: heal. Now a quorum exists and exactly one follower must
	// promote within the detection budget: lease timeout + suspicion
	// ticks + randomized election spacing + one vote-floor-jump round +
	// the drain, with slack for -race on loaded CI.
	chB.Heal()
	gateB.cut.Store(false)
	healAt := time.Now()
	detectBudget := 10*foLeaseTO + 2*time.Second
	var winner, loser *foNode
	for winner == nil {
		if time.Since(healAt) > detectBudget {
			t.Fatalf("no follower promoted within the detection budget %v (a %+v; b %+v)",
				detectBudget, a.srv.Failover().Status(), b.srv.Failover().Status())
		}
		switch {
		case a.srv.PromotedStore() != nil:
			winner, loser = a, b
		case b.srv.PromotedStore() != nil:
			winner, loser = b, a
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	promotedIn := time.Since(healAt)
	co := winner.srv.Failover()
	epoch := co.Epoch()
	t.Logf("follower %s promoted %v after heal at epoch %d", winner.id, promotedIn, epoch)
	if epoch < 2 {
		t.Fatalf("promotion kept epoch %d, want >= 2", epoch)
	}
	// Let the new leader's first lease rounds land, then confirm there is
	// exactly one primary — the loser stayed a follower.
	time.Sleep(3 * foLeaseIv)
	if loser.srv.PromotedStore() != nil {
		t.Fatal("both followers promoted — split brain")
	}
	// The winner's lease tells the loser its source was deposed, and the
	// loser stops applying what that source ships: the old primary revived
	// below re-archives its unacknowledged tail into the directory the loser
	// still tails, under LSNs the winner has since given to other commits.
	waitFor(t, func() bool { return loser.f.Stats().Stalled })
	lst := loser.f.Stats()
	if !strings.Contains(lst.StallCause, "elected "+winner.id) {
		t.Fatalf("loser stalled with %q, want the leader change", lst.StallCause)
	}

	// Zero acknowledged writes lost: the winner drained the dead
	// primary's archive before reopening, so every acked commit is in its
	// store. (Commits whose ack died with the primary may or may not be —
	// hence the attempted upper bound, same as every chaos suite here.)
	wst := winner.srv.PromotedStore()
	v, err := axml.QueryValue(wst, `count(/log/e)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("count = %q", v)
	}
	if n < ackedN || n > attemptedN {
		t.Fatalf("new primary has %d commits, want between %d acked and %d attempted — an acknowledged write was lost", n, ackedN, attemptedN)
	}
	if err := wst.Verify(); err != nil {
		t.Fatalf("new primary verify: %v", err)
	}
	// The winner's term file — the epoch's one durable home — records the
	// new primacy.
	if got := termEpoch(t, winner.term); got != epoch {
		t.Fatalf("winner term file epoch = %d, want %d", got, epoch)
	}

	// The fleet client needs no operator: it rediscovers the new primary
	// (the dead endpoint still listed) and writes land under the new epoch.
	fc := dialFleet(t, server.FleetOptions{HealthTTL: 50 * time.Millisecond, Retry: quickRetry()},
		paddr, a.addr, b.addr)
	for i := 0; i < 5; i++ {
		wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
		_, werr := fc.Insert(wctx, server.InsertLast, root, fmt.Sprintf(`<post i="%d"/>`, i))
		wcancel()
		if werr != nil {
			t.Fatalf("fleet write %d after failover: %v", i, werr)
		}
	}
	if v, err := axml.QueryValue(wst, `count(/log/post)`); err != nil || v != "5" {
		t.Fatalf("post-failover fleet writes on new primary: %q, %v; want 5", v, err)
	}

	// Phase 5: resurrect the old primary from its surviving files. Its
	// Verify must be clean — the kill tore nothing — and the moment its
	// coordinator hears of the new epoch it must fence, with the typed
	// error on the write path AND the segment-ship path.
	pst, err := axml.ReopenFileWAL(filepath.Join(dir, "store.db"), helperCfg(), filepath.Join(dir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	if err := pst.Verify(); err != nil {
		t.Fatalf("revived old primary verify: %v", err)
	}
	psrv, err := server.New(server.Options{Store: pst, ArchiveDir: filepath.Join(dir, "segments"), NodeID: "p"})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go psrv.Serve(pln)
	pPeers := server.NewFleetPeers(foPeerOpts())
	if _, err := psrv.AttachFailover(failover.Config{
		NodeID:        "p",
		Peers:         fleet,
		TermPath:      filepath.Join(dir, "p.term"), // the helper's own term file
		LeaseInterval: foLeaseIv,
		LeaseTimeout:  foLeaseTO,
		Logf:          t.Logf,
	}, pPeers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		psrv.CloseFailover()
		pPeers.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		psrv.Shutdown(sctx)
	})
	// Its first heartbeats at the stale epoch meet the new one and latch
	// the fence, durably.
	waitFor(t, func() bool { return psrv.Failover().Fenced() })

	pc, err := server.Dial(pln.Addr().String(), server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	fctx, fcancel := context.WithTimeout(ctx, 5*time.Second)
	defer fcancel()
	if _, werr := pc.Insert(fctx, server.InsertLast, root, `<zombie/>`); !errors.Is(werr, failover.ErrFenced) {
		t.Fatalf("write on revived old primary: got %v, want ErrFenced", werr)
	} else if core.Retryable(werr) {
		t.Fatal("ErrFenced must not classify retryable against the same node")
	}
	pc.SetEpoch(1) // even stamped with its own old epoch
	if _, werr := pc.Insert(fctx, server.InsertLast, root, `<zombie/>`); !errors.Is(werr, failover.ErrFenced) {
		t.Fatalf("stale-epoch write on revived old primary: got %v, want ErrFenced", werr)
	}
	if _, serr := pc.Segments(fctx, 0); !errors.Is(serr, failover.ErrFenced) {
		t.Fatalf("segment listing on revived old primary: got %v, want ErrFenced", serr)
	}
	if _, serr := pc.FetchSegment(fctx, 1); !errors.Is(serr, failover.ErrFenced) {
		t.Fatalf("segment fetch on revived old primary: got %v, want ErrFenced", serr)
	}
	if v, err := axml.QueryValue(wst, `count(/log/zombie)`); err != nil || v != "0" {
		t.Fatalf("zombie writes reached the new timeline: %q, %v", v, err)
	}

	// Phase 6: convergence. The loser re-points at the winner — over the
	// network, epoch-stamped, served from the winner's own archive — and
	// must land Verify-clean at the same position and content.
	if got := loser.f.Stats().AppliedLSN; got != lst.AppliedLSN {
		t.Fatalf("stalled loser moved from LSN %d to %d while the old primary was revived", lst.AppliedLSN, got)
	}
	if err := loser.f.Close(); err != nil {
		t.Fatal(err)
	}
	ntr := server.NewNetTransport(winner.addr, server.NetTransportOptions{
		Epoch: func() uint64 { return co.Epoch() },
	})
	f2, err := replica.Open(loser.db, ntr, replica.Options{
		Store:      foStoreCfg(),
		ArchiveDir: loser.archive,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, func() bool {
		cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
		defer ccancel()
		if err := f2.CatchUp(cctx); err != nil {
			return false
		}
		return f2.Stats().AppliedLSN == wst.Stats().ArchiveLSN
	})
	verifyReplica(t, f2)
	if got := termEpoch(t, loser.term); got != epoch {
		t.Fatalf("loser term file epoch %d after convergence, want %d", got, epoch)
	}
	var gotE, gotP string
	if err := f2.Read(replica.ReadOptions{}, func(s *core.Store) error {
		var rerr error
		if gotE, rerr = axml.QueryValue(s, `count(/log/e)`); rerr != nil {
			return rerr
		}
		gotP, rerr = axml.QueryValue(s, `count(/log/post)`)
		return rerr
	}); err != nil {
		t.Fatal(err)
	}
	if gotE != v0(n) || gotP != "5" {
		t.Fatalf("converged follower has %s commits and %s post-failover writes, want %d and 5", gotE, gotP, n)
	}
	t.Logf("converged: %d commits + 5 post-failover writes on every node, epoch %d everywhere", n, epoch)
}

func v0(n int64) string { return strconv.FormatInt(n, 10) }

// TestFailoverInProcessPromotionAfterLeaderDeath is the fast, in-process
// half of the failover coverage (no subprocess, runs under -short): a
// three-node fleet over real listeners loses its primary to a shutdown,
// the lowest-ID caught-up follower self-promotes under epoch 2, and a
// fleet client writes to the new primary with no operator involved.
func TestFailoverInProcessPromotionAfterLeaderDeath(t *testing.T) {
	dir := t.TempDir()
	w := startWALPrimary(t, server.Options{NodeID: "p"})

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fleet := []failover.Peer{
		{ID: "p", Addr: w.addr},
		{ID: "a", Addr: lnA.Addr().String()},
		{ID: "b", Addr: lnB.Addr().String()},
	}
	attach := func(srv *server.Server, id string) *failover.Coordinator {
		t.Helper()
		peers := server.NewFleetPeers(foPeerOpts())
		co, err := srv.AttachFailover(failover.Config{
			NodeID:        id,
			Peers:         fleet,
			TermPath:      filepath.Join(dir, id+".term"),
			LeaseInterval: 50 * time.Millisecond,
			LeaseTimeout:  300 * time.Millisecond,
			Logf:          t.Logf,
		}, peers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.CloseFailover()
			peers.Close()
		})
		return co
	}

	// Followers tail the primary over the network and serve on their own
	// listeners, coordinators attached.
	mk := func(id string, ln net.Listener) (*replica.Follower, *server.Server) {
		t.Helper()
		f := w.follower(t, id, server.NetTransportOptions{})
		srv, err := server.New(server.Options{Follower: f, NodeID: id})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
			if ps := srv.PromotedStore(); ps != nil {
				ps.Close()
			}
		})
		return f, srv
	}
	fA, srvA := mk("a", lnA)
	fB, srvB := mk("b", lnB)
	attach(w.srv, "p")
	attach(srvA, "a")
	attach(srvB, "b")

	// The leader establishes its lease; both followers learn who leads.
	waitFor(t, func() bool {
		s := w.srv.Failover().Status()
		return s.Role == "primary" && s.LeaseAgeMs >= 0
	})
	waitFor(t, func() bool {
		return srvA.Failover().Status().LeaderID == "p" && srvB.Failover().Status().LeaderID == "p"
	})

	// Epoch-0 wire writes pass the leader's quorum-lease gate, and the
	// health surface carries the failover fields.
	ctx := context.Background()
	c := w.dial(server.ClientOptions{})
	var last core.NodeID
	for i := 0; i < 5; i++ {
		id, err := c.Insert(ctx, server.InsertLast, w.root, fmt.Sprintf(`<e n="%d"/>`, i))
		if err != nil {
			t.Fatalf("write under quorum lease: %v", err)
		}
		last = id
	}
	_ = last
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.NodeID != "p" || h.Epoch != 1 || h.Fenced {
		t.Fatalf("primary health = %+v, want node p at epoch 1, unfenced", h)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failover == nil || st.Failover.Role != "primary" {
		t.Fatalf("stats failover block = %+v, want primary status", st.Failover)
	}

	// Both followers level with the primary, then the primary dies (a
	// clean death here; the chaos test does it with kill -9).
	waitFor(t, func() bool {
		aok := fA.CatchUp(ctx) == nil && fA.Stats().AppliedLSN == w.wp.LSN()
		bok := fB.CatchUp(ctx) == nil && fB.Stats().AppliedLSN == w.wp.LSN()
		return aok && bok
	})
	wantV, err := w.st.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	w.srv.CloseFailover()
	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	w.srv.Shutdown(sctx)

	// Detection, election, promotion — no operator. Equal LSNs, so the
	// tie breaks to the lower node ID: a.
	waitFor(t, func() bool { return srvA.PromotedStore() != nil })
	if srvB.PromotedStore() != nil {
		t.Fatal("both followers promoted — split brain")
	}
	co := srvA.Failover()
	if got := co.Epoch(); got < 2 {
		t.Fatalf("promoted under epoch %d, want >= 2", got)
	}

	// The fleet client, pointed at the whole original fleet, routes
	// writes to the new primary under the new epoch.
	fc := dialFleet(t, server.FleetOptions{HealthTTL: 30 * time.Millisecond, Retry: quickRetry()},
		w.addr, lnA.Addr().String(), lnB.Addr().String())
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
	defer wcancel()
	if _, err := fc.Insert(wctx, server.InsertLast, w.root, `<after-failover/>`); err != nil {
		t.Fatalf("fleet write after automatic failover: %v", err)
	}
	ast := srvA.PromotedStore()
	if err := ast.Verify(); err != nil {
		t.Fatalf("promoted store verify: %v", err)
	}
	got, err := ast.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	want := wantV[:len(wantV)-len("</log>")] + "<after-failover/></log>"
	if got != want {
		t.Fatalf("promoted store serves %q, want %q", got, want)
	}
}

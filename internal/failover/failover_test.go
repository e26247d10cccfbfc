package failover

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeNode is a controllable Node.
type fakeNode struct {
	mu       sync.Mutex
	role     string
	lsn      uint64
	promoted int
	promErr  error
	leaders  []string // LeaderChanged calls, in order
}

func (n *fakeNode) LeaderChanged(_ uint64, leaderID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaders = append(n.leaders, leaderID)
}

func (n *fakeNode) leaderChanges() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.leaders...)
}

func (n *fakeNode) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

func (n *fakeNode) AppliedLSN() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lsn
}

func (n *fakeNode) Promote(context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promErr != nil {
		return n.promErr
	}
	n.promoted++
	n.role = "primary"
	return nil
}

// fakeFleet routes Lease/RequestVote calls between in-process coordinators
// by address, with a per-link partition switch.
type fakeFleet struct {
	mu    sync.Mutex
	nodes map[string]*Coordinator // addr -> coordinator
	cut   map[string]bool         // addr unreachable
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{nodes: map[string]*Coordinator{}, cut: map[string]bool{}}
}

func (f *fakeFleet) register(addr string, c *Coordinator) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nodes[addr] = c
}

func (f *fakeFleet) partition(addr string, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cut[addr] = on
}

// link resolves a call from `from` to `to`; a partitioned address is cut
// off symmetrically — neither its inbound nor its outbound traffic flows.
func (f *fakeFleet) link(from, to string) (*Coordinator, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cut[from] || f.cut[to] {
		return nil, errors.New("fake fleet: partitioned")
	}
	c, ok := f.nodes[to]
	if !ok {
		return nil, errors.New("fake fleet: no such node")
	}
	return c, nil
}

// client returns the PeerClient one node uses — it remembers the caller's
// own address so partitions are symmetric.
func (f *fakeFleet) client(selfAddr string) PeerClient {
	return &fleetClient{f: f, self: selfAddr}
}

type fleetClient struct {
	f    *fakeFleet
	self string
}

func (fc *fleetClient) Lease(_ context.Context, addr string, req LeaseRequest) (LeaseReply, error) {
	c, err := fc.f.link(fc.self, addr)
	if err != nil {
		return LeaseReply{}, err
	}
	return c.OnLease(req), nil
}

func (fc *fleetClient) RequestVote(_ context.Context, addr string, req VoteRequest) (VoteReply, error) {
	c, err := fc.f.link(fc.self, addr)
	if err != nil {
		return VoteReply{}, err
	}
	return c.OnVote(req), nil
}

func fastCfg(t *testing.T, id string, peers []Peer) Config {
	t.Helper()
	return Config{
		NodeID:        id,
		Peers:         peers,
		TermPath:      filepath.Join(t.TempDir(), id+".term"),
		LeaseInterval: 20 * time.Millisecond,
		LeaseTimeout:  80 * time.Millisecond,
		SuspectTicks:  2,
		Logf:          t.Logf,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// threeNode builds a three-member fleet with n1 primary, starts nothing.
func threeNode(t *testing.T) (fleet *fakeFleet, cs map[string]*Coordinator, ns map[string]*fakeNode) {
	t.Helper()
	peers := []Peer{{ID: "n1", Addr: "a1"}, {ID: "n2", Addr: "a2"}, {ID: "n3", Addr: "a3"}}
	fleet = newFakeFleet()
	cs = map[string]*Coordinator{}
	ns = map[string]*fakeNode{}
	for i, p := range peers {
		role := "replica"
		if i == 0 {
			role = "primary"
		}
		n := &fakeNode{role: role}
		c, err := New(fastCfg(t, p.ID, peers), n, fleet.client(p.Addr))
		if err != nil {
			t.Fatalf("New(%s): %v", p.ID, err)
		}
		fleet.register(p.Addr, c)
		cs[p.ID] = c
		ns[p.ID] = n
		t.Cleanup(func() { c.Close() })
	}
	return fleet, cs, ns
}

func TestConfigValidation(t *testing.T) {
	peers := []Peer{{ID: "n1", Addr: "a1"}, {ID: "n2", Addr: "a2"}}
	n := &fakeNode{role: "replica"}
	if _, err := New(Config{Peers: peers, TermPath: "x"}, n, newFakeFleet().client("self")); err == nil {
		t.Fatal("want error for missing NodeID")
	}
	if _, err := New(Config{NodeID: "n1", Peers: peers}, n, newFakeFleet().client("self")); err == nil {
		t.Fatal("want error for missing TermPath")
	}
	if _, err := New(Config{NodeID: "nx", Peers: peers, TermPath: "x"}, n, newFakeFleet().client("self")); err == nil {
		t.Fatal("want error for NodeID not in fleet")
	}
	dup := []Peer{{ID: "n1", Addr: "a1"}, {ID: "n1", Addr: "a2"}}
	if _, err := New(Config{NodeID: "n1", Peers: dup, TermPath: "x"}, n, newFakeFleet().client("self")); err == nil {
		t.Fatal("want error for duplicate peer ID")
	}
}

func TestHealthyPrimaryHoldsLeaseAndAcceptsWrites(t *testing.T) {
	_, cs, _ := threeNode(t)
	for _, c := range cs {
		c.Start()
	}
	waitFor(t, 2*time.Second, "primary quorum lease", func() bool {
		return cs["n1"].CheckWrite(0) == nil
	})
	// Epoch-stamped writes at the current epoch pass; stale epochs fence.
	if err := cs["n1"].CheckWrite(cs["n1"].Epoch()); err != nil {
		t.Fatalf("CheckWrite(current epoch): %v", err)
	}
	if err := cs["n1"].CheckWrite(cs["n1"].Epoch() + 7); !errors.Is(err, ErrFenced) {
		t.Fatalf("CheckWrite(wrong epoch) = %v, want ErrFenced", err)
	}
	// Followers keep their suspicion at zero under a healthy leader.
	time.Sleep(200 * time.Millisecond)
	if s := cs["n2"].Status(); s.Suspicion != 0 || s.LeaderID != "n1" {
		t.Fatalf("follower status under healthy leader: %+v", s)
	}
}

func TestPartitionedPrimarySelfFencesWrites(t *testing.T) {
	fleet, cs, _ := threeNode(t)
	for _, c := range cs {
		c.Start()
	}
	waitFor(t, 2*time.Second, "primary quorum lease", func() bool {
		return cs["n1"].CheckWrite(0) == nil
	})
	// Cut the primary off from both followers: its lease lapses and its own
	// CheckWrite starts refusing, before anyone else is even elected.
	fleet.partition("a2", true)
	fleet.partition("a3", true)
	waitFor(t, 2*time.Second, "self-fenced writes", func() bool {
		return errors.Is(cs["n1"].CheckWrite(0), ErrFenced)
	})
}

func TestFailoverElectsHighestLSN(t *testing.T) {
	fleet, cs, ns := threeNode(t)
	ns["n2"].mu.Lock()
	ns["n2"].lsn = 5
	ns["n2"].mu.Unlock()
	ns["n3"].mu.Lock()
	ns["n3"].lsn = 9 // n3 is further ahead and must win
	ns["n3"].mu.Unlock()
	for _, c := range cs {
		c.Start()
	}
	waitFor(t, 2*time.Second, "primary quorum lease", func() bool {
		return cs["n1"].CheckWrite(0) == nil
	})
	waitFor(t, 2*time.Second, "followers accepting n1", func() bool {
		return cs["n2"].Status().LeaderID == "n1" && cs["n3"].Status().LeaderID == "n1"
	})
	// Kill the primary (unreachable both ways).
	fleet.partition("a1", true)
	cs["n1"].Close()

	waitFor(t, 5*time.Second, "n3 promotion", func() bool {
		return ns["n3"].Role() == "primary" && cs["n3"].CheckWrite(0) == nil
	})
	if got := ns["n2"].Role(); got != "replica" {
		t.Fatalf("n2 role = %q, want replica", got)
	}
	// The first leader a follower accepts is no change; the winner's lease
	// replacing n1 is, and only on the follower that still follows.
	waitFor(t, 2*time.Second, "n2 told of the new leader", func() bool {
		return len(ns["n2"].leaderChanges()) > 0
	})
	if got := ns["n2"].leaderChanges(); len(got) != 1 || got[0] != "n3" {
		t.Fatalf("n2 leader changes = %v, want [n3]", got)
	}
	if got := ns["n3"].leaderChanges(); len(got) != 0 {
		t.Fatalf("the winner was told of leader changes %v", got)
	}
	if e := cs["n3"].Epoch(); e < 2 {
		t.Fatalf("winner epoch = %d, want >= 2", e)
	}
	ns["n3"].mu.Lock()
	promoted := ns["n3"].promoted
	ns["n3"].mu.Unlock()
	if promoted != 1 {
		t.Fatalf("n3 promoted %d times, want exactly one promotion", promoted)
	}
}

func TestRevivedOldPrimaryIsFenced(t *testing.T) {
	fleet, cs, ns := threeNode(t)
	ns["n3"].mu.Lock()
	ns["n3"].lsn = 9
	ns["n3"].mu.Unlock()
	for _, c := range cs {
		c.Start()
	}
	waitFor(t, 2*time.Second, "primary quorum lease", func() bool {
		return cs["n1"].CheckWrite(0) == nil
	})
	fleet.partition("a1", true)
	waitFor(t, 5*time.Second, "n3 promotion", func() bool {
		return ns["n3"].Role() == "primary" && cs["n3"].CheckWrite(0) == nil
	})

	// Heal the partition: the revived old primary's next lease round sees
	// the higher epoch and latches Fenced — durably.
	fleet.partition("a1", false)
	waitFor(t, 5*time.Second, "old primary fenced", func() bool {
		return cs["n1"].Fenced()
	})
	if err := cs["n1"].CheckWrite(0); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced CheckWrite = %v, want ErrFenced", err)
	}
	if err := cs["n1"].CheckShip(0); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced CheckShip = %v, want ErrFenced", err)
	}
	// Fencing survives kill -9: reload the term file.
	term, err := loadTerm(cs["n1"].cfg.TermPath)
	if err != nil {
		t.Fatalf("loadTerm: %v", err)
	}
	if !term.Fenced || term.Epoch < cs["n3"].Epoch() {
		t.Fatalf("persisted term %+v, want fenced at epoch >= %d", term, cs["n3"].Epoch())
	}
	// ErrFenced is registered and not retryable.
	if got := core.ErrCodeOf(cs["n1"].CheckWrite(0)); got != core.CodeFenced {
		t.Fatalf("ErrCodeOf = %d, want CodeFenced", got)
	}
	if core.Retryable(cs["n1"].CheckWrite(0)) {
		t.Fatal("ErrFenced must not be retryable")
	}
}

func TestLoneCandidateCannotDeposeHealthyPrimary(t *testing.T) {
	fleet, cs, ns := threeNode(t)
	for _, c := range cs {
		c.Start()
	}
	waitFor(t, 2*time.Second, "primary quorum lease", func() bool {
		return cs["n1"].CheckWrite(0) == nil
	})
	// n3 alone loses contact with everyone: it will propose epochs forever
	// but can never reach quorum, and its tentative epochs must not fence
	// the healthy primary.
	fleet.partition("a3", true)
	time.Sleep(500 * time.Millisecond) // several election attempts' worth
	if err := cs["n1"].CheckWrite(0); err != nil {
		t.Fatalf("healthy primary fenced by lone candidate: %v", err)
	}
	if cs["n1"].Fenced() {
		t.Fatal("healthy primary latched Fenced")
	}
	// Heal: n3 rejoins as a follower of the still-current leader.
	fleet.partition("a3", false)
	waitFor(t, 2*time.Second, "n3 rejoins", func() bool {
		s := cs["n3"].Status()
		return s.LeaderID == "n1" && s.Suspicion == 0
	})
	if ns["n3"].Role() != "replica" {
		t.Fatal("n3 must not have promoted")
	}
}

func TestVoteRankRefusesLaggingCandidate(t *testing.T) {
	peers := []Peer{{ID: "n1", Addr: "a1"}, {ID: "n2", Addr: "a2"}, {ID: "n3", Addr: "a3"}}
	n2 := &fakeNode{role: "replica", lsn: 10}
	c2, err := New(fastCfg(t, "n2", peers), n2, newFakeFleet().client("self"))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Make n2's leader info stale so the "protect a live leader" clause
	// doesn't mask the rank check.
	c2.mu.Lock()
	c2.lastLease = time.Now().Add(-time.Minute)
	c2.mu.Unlock()

	// A candidate behind n2's LSN is refused.
	rep := c2.OnVote(VoteRequest{Epoch: 2, CandidateID: "n3", LSN: 4})
	if rep.Granted {
		t.Fatal("granted vote to lagging candidate")
	}
	if rep.VoterLSN != 10 {
		t.Fatalf("VoterLSN = %d, want 10", rep.VoterLSN)
	}
	// Equal LSN, higher ID than ours: refused (lowest ID wins ties).
	if rep := c2.OnVote(VoteRequest{Epoch: 2, CandidateID: "n9", LSN: 10}); rep.Granted {
		t.Fatal("granted tie to higher node ID")
	}
	// Equal LSN, lower ID: granted.
	if rep := c2.OnVote(VoteRequest{Epoch: 2, CandidateID: "n0", LSN: 10}); !rep.Granted {
		t.Fatal("refused tie to lower node ID")
	}
	// One grant per epoch, even for the same candidate again.
	if rep := c2.OnVote(VoteRequest{Epoch: 2, CandidateID: "n0", LSN: 10}); rep.Granted {
		t.Fatal("granted the same epoch twice")
	}
	// Vote promise: the old leader's lease is nacked after a grant for a
	// newer epoch.
	if rep := c2.OnLease(LeaseRequest{Epoch: 1, LeaderID: "n1", LSN: 10}); rep.OK {
		t.Fatal("acked old leader's lease after promising a newer epoch")
	}
}

func TestVotePersistsAcrossRestart(t *testing.T) {
	peers := []Peer{{ID: "n1", Addr: "a1"}, {ID: "n2", Addr: "a2"}, {ID: "n3", Addr: "a3"}}
	cfg := fastCfg(t, "n2", peers)
	n2 := &fakeNode{role: "replica"}
	c2, err := New(cfg, n2, newFakeFleet().client("self"))
	if err != nil {
		t.Fatal(err)
	}
	c2.mu.Lock()
	c2.lastLease = time.Now().Add(-time.Minute)
	c2.mu.Unlock()
	if rep := c2.OnVote(VoteRequest{Epoch: 5, CandidateID: "n3", LSN: 99}); !rep.Granted {
		t.Fatal("vote refused")
	}
	c2.Close()

	// Same term file, new coordinator: the promise survives.
	c2b, err := New(cfg, n2, newFakeFleet().client("self"))
	if err != nil {
		t.Fatal(err)
	}
	defer c2b.Close()
	c2b.mu.Lock()
	c2b.lastLease = time.Now().Add(-time.Minute)
	c2b.mu.Unlock()
	if rep := c2b.OnVote(VoteRequest{Epoch: 5, CandidateID: "n1", LSN: 1000}); rep.Granted {
		t.Fatal("re-granted epoch 5 after restart")
	}
	if rep := c2b.OnVote(VoteRequest{Epoch: 6, CandidateID: "n1", LSN: 1000}); !rep.Granted {
		t.Fatal("refused fresh epoch 6 after restart")
	}
}

func TestSingleNodeFleetHoldsOwnLease(t *testing.T) {
	peers := []Peer{{ID: "solo", Addr: "a1"}}
	n := &fakeNode{role: "primary"}
	c, err := New(fastCfg(t, "solo", peers), n, newFakeFleet().client("self"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	waitFor(t, 2*time.Second, "solo lease", func() bool {
		return c.CheckWrite(0) == nil
	})
	if q := c.quorum(); q != 1 {
		t.Fatalf("solo quorum = %d, want 1", q)
	}
}

func TestCheckShipEpochMismatch(t *testing.T) {
	peers := []Peer{{ID: "n1", Addr: "a1"}}
	n := &fakeNode{role: "replica"}
	c, err := New(fastCfg(t, "n1", peers), n, newFakeFleet().client("self"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CheckShip(0); err != nil {
		t.Fatalf("CheckShip(0): %v", err)
	}
	if err := c.CheckShip(c.Epoch()); err != nil {
		t.Fatalf("CheckShip(current): %v", err)
	}
	if err := c.CheckShip(c.Epoch() + 3); !errors.Is(err, ErrFenced) {
		t.Fatalf("CheckShip(wrong) = %v, want ErrFenced", err)
	}
}

// TestImplausibleEpochJumpRefused: a hostile or corrupt frame carrying an
// absurd epoch must not durably fence a healthy primary (via OnLease →
// adopt) or inflate a voter's promise so a later proposal's VotedEpoch+1
// overflows. Plausible jumps keep adopting normally.
func TestImplausibleEpochJumpRefused(t *testing.T) {
	_, cs, _ := threeNode(t) // not started: drive the handlers directly
	huge := uint64(math.MaxUint64)

	// Primary: the review scenario — one LEASE at 2^64-1 must not latch
	// Fenced (which would mean permanent write refusal and a manual
	// rebuild).
	rep := cs["n1"].OnLease(LeaseRequest{Epoch: huge, LeaderID: "evil"})
	if rep.OK {
		t.Fatal("implausible lease epoch was acked")
	}
	if cs["n1"].Fenced() {
		t.Fatal("implausible lease epoch fenced the primary")
	}
	if e := cs["n1"].Epoch(); e != 1 {
		t.Fatalf("primary adopted implausible epoch: %d", e)
	}

	// Follower: same refusal, nothing adopted.
	rep = cs["n2"].OnLease(LeaseRequest{Epoch: huge, LeaderID: "evil"})
	if rep.OK || cs["n2"].Epoch() != 1 {
		t.Fatalf("follower accepted implausible lease: ok=%v epoch=%d", rep.OK, cs["n2"].Epoch())
	}

	// Vote: must not be granted, and VotedEpoch must not move — otherwise
	// this node's own next candidacy proposes VotedEpoch+1 == 0.
	vrep := cs["n2"].OnVote(VoteRequest{Epoch: huge, CandidateID: "evil", LSN: 1 << 40})
	if vrep.Granted {
		t.Fatal("implausible vote epoch was granted")
	}
	if got := cs["n2"].Status().VotedEpoch; got != 1 {
		t.Fatalf("VotedEpoch inflated to %d by refused vote", got)
	}

	// A sane jump (real fleets move by ones) still adopts.
	rep = cs["n2"].OnLease(LeaseRequest{Epoch: 5, LeaderID: "n1"})
	if !rep.OK || cs["n2"].Epoch() != 5 {
		t.Fatalf("plausible epoch jump refused: ok=%v epoch=%d", rep.OK, cs["n2"].Epoch())
	}
}

// slowAckPeers acks every lease after a fixed delay — a stand-in for RPC
// latency inside the coordinator's timeout.
type slowAckPeers struct{ delay time.Duration }

func (s slowAckPeers) Lease(_ context.Context, _ string, req LeaseRequest) (LeaseReply, error) {
	time.Sleep(s.delay)
	return LeaseReply{Epoch: req.Epoch, OK: true}, nil
}

func (s slowAckPeers) RequestVote(_ context.Context, _ string, req VoteRequest) (VoteReply, error) {
	time.Sleep(s.delay)
	return VoteReply{Granted: true, Epoch: req.Epoch - 1, VotedEpoch: req.Epoch}, nil
}

// TestLeaseValidityAnchoredAtRoundStart: voters record lastLease at
// receipt, up to one RPC round before the leader tallies acks — so the
// leader's self-enforced validity window must be measured from the
// round's START. Anchoring after the wait would let a partitioned primary
// pass CheckWrite while a successor is being elected.
func TestLeaseValidityAnchoredAtRoundStart(t *testing.T) {
	peers := []Peer{{ID: "n1", Addr: "a1"}, {ID: "n2", Addr: "a2"}}
	cfg := Config{
		NodeID:        "n1",
		Peers:         peers,
		TermPath:      filepath.Join(t.TempDir(), "n1.term"),
		LeaseInterval: 20 * time.Millisecond,
		LeaseTimeout:  400 * time.Millisecond, // rpcTimeout 200ms > the 120ms delay
		Logf:          t.Logf,
	}
	delay := 120 * time.Millisecond
	c, err := New(cfg, &fakeNode{role: "primary"}, slowAckPeers{delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.leaseRound() // one synchronous round, no background loop
	s := c.Status()
	if s.LeaseAgeMs < delay.Milliseconds()-10 {
		t.Fatalf("lease age %dms right after a %v-slow round: validity anchored at tally time, not round start", s.LeaseAgeMs, delay)
	}
	// The round still establishes a usable lease: age is inside validity.
	if err := c.CheckWrite(0); err != nil {
		t.Fatalf("CheckWrite after slow-but-acked round: %v", err)
	}
}

func TestStatusSnapshot(t *testing.T) {
	_, cs, _ := threeNode(t)
	for _, c := range cs {
		c.Start()
	}
	waitFor(t, 2*time.Second, "primary quorum lease", func() bool {
		return cs["n1"].CheckWrite(0) == nil
	})
	s := cs["n1"].Status()
	if s.NodeID != "n1" || s.Role != "primary" || s.Epoch == 0 || s.Fenced {
		t.Fatalf("primary status: %+v", s)
	}
	if s.LeaseAgeMs < 0 {
		t.Fatalf("primary LeaseAgeMs = %d, want >= 0", s.LeaseAgeMs)
	}
	waitFor(t, 2*time.Second, "follower sees leader", func() bool {
		return cs["n2"].Status().LeaderID == "n1"
	})
}

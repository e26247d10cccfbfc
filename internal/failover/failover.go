// Package failover closes the last human loop in the serving fleet: when
// the primary dies, a follower promotes itself — safely.
//
// The protocol is a lease-based failure detector plus a quorum election,
// with epoch fencing making split-brain impossible rather than unlikely:
//
//   - The primary heartbeats an epoch-stamped lease to every fleet member.
//     It may accept writes only while a quorum acked its lease within the
//     validity window; a partitioned primary therefore fences its own
//     writes before anyone else can be elected.
//   - Followers run a timeout-with-suspicion detector: a missed lease
//     raises suspicion, and only sustained silence triggers an election —
//     one slow heartbeat never deposes a healthy leader.
//   - An election proposes epoch+1. A voter grants at most one candidacy
//     per epoch (durably, surviving kill -9), refuses while its leader's
//     lease is still fresh, and refuses candidates behind its own applied
//     LSN (ties broken toward the lower node ID) — so the quorum winner is
//     the best-positioned candidate. Granting a vote is also a promise to
//     stop acking the old leader's lease; by quorum intersection the old
//     primary's lease has lapsed before the winner can have won.
//   - The winner drains whatever segments remain reachable, promotes via
//     the server's existing promotion path, and starts heartbeating. The
//     new epoch is persisted in the term file and nowhere else; the replica
//     sidecar's FencedLSN records where the hand-over cut the history.
//   - Every write and segment-ship frame carries an epoch stamp; a node or
//     client presenting a stale epoch gets a typed ErrFenced. A node that
//     was primary at a lower epoch latches Fenced durably the moment it
//     learns of its successor: a resurrected old primary can neither
//     accept writes (no quorum will ack its lease) nor ship segments.
//
// Timing assumption: leases trade clock-rate skew for availability, as
// every lease system does. The validity window the leader enforces on
// itself is one interval shorter than the timeout voters enforce, so
// modest skew is absorbed; wildly broken clocks are out of scope.
package failover

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrFenced is the typed refusal every stale-epoch presenter gets: a
// write or segment-ship request stamped with the wrong epoch, a write on
// a primary whose lease lapsed, any operation on a node that has been
// superseded. Not retryable against the same node — fleet clients
// rediscover the current primary instead.
var ErrFenced = errors.New("failover: stale epoch — fenced")

func init() {
	core.RegisterErrCode(core.CodeFenced, ErrFenced, false)
}

// MaxEpochJump bounds how far a single remote message may advance this
// node's view of the established (or promised) epoch. Epochs move by one
// per leadership change, and even a fleet thrashing through contested
// elections advances a handful per round — so a jump of tens of
// thousands is not a fleet state, it is corruption or a hostile frame.
// Without the bound, one LEASE frame carrying epoch 2^64-1 would durably
// latch Fenced on a healthy primary (adoptLocked), and one VOTE frame
// could inflate VotedEpoch so a later candidacy's VotedEpoch+1 overflows
// to zero and wedges the fleet. Implausible jumps are refused without
// adopting anything; the sender, if honest, retries and converges.
const MaxEpochJump = 1 << 16

// plausibleJumpLocked reports whether adopting epoch is a sane move from
// the current term. Callers hold c.mu and have established
// epoch > c.term.Epoch.
func (c *Coordinator) plausibleJumpLocked(epoch uint64) bool {
	return epoch-c.term.Epoch <= MaxEpochJump
}

// Peer is one fleet member. The fleet list, including the local node,
// must be identical on every member — quorum arithmetic depends on it.
type Peer struct {
	ID   string
	Addr string
}

// Config tunes one node's coordinator.
type Config struct {
	// NodeID is this node's identity; it must appear in Peers.
	NodeID string
	// Peers is the whole fleet, self included.
	Peers []Peer
	// TermPath is where the durable term state lives (epoch, vote promise,
	// fence latch). Required.
	TermPath string
	// LeaseInterval is the heartbeat period. Default 500ms.
	LeaseInterval time.Duration
	// LeaseTimeout is how long a follower waits past the last lease before
	// suspecting the leader, and how long a voter protects a quiet leader.
	// Default 4x LeaseInterval.
	LeaseTimeout time.Duration
	// SuspectTicks is how many consecutive detector ticks past LeaseTimeout
	// must accumulate before an election starts. Default 2.
	SuspectTicks int
	// Quorum overrides the vote/ack threshold. 0 means majority of the
	// fleet: len(Peers)/2 + 1.
	Quorum int
	// PromoteBudget bounds the drain-and-promote step after a won
	// election. A bigger budget lets a lagging winner drain more of the
	// dead primary's reachable segments before reopening read-write; it
	// extends unavailability, never unsafety (fencing is epoch-based, and
	// a vote granted to the winner keeps rivals out regardless of how long
	// the promotion takes). Default 10x LeaseTimeout.
	PromoteBudget time.Duration
	// Logf receives protocol events. Nil discards.
	Logf func(format string, args ...any)
}

// Node is the coordinator's view of the server it runs inside. All
// methods must be safe for concurrent use.
type Node interface {
	// Role reports "primary" or "replica" — the serving role right now,
	// reflecting completed promotions.
	Role() string
	// AppliedLSN is the node's replication position (a primary reports its
	// archived position).
	AppliedLSN() uint64
	// Promote drains what remains reachable and promotes the node to
	// primary. Called only after a won election; the coordinator records
	// the new epoch in its term file once Promote returns.
	Promote(ctx context.Context) error
	// LeaderChanged tells a follower it accepted leaderID's lease at epoch
	// after following another leader. Called without the coordinator's
	// lock; it must not block on the follower's apply path.
	LeaderChanged(epoch uint64, leaderID string)
}

// PeerClient carries the two protocol messages to a fleet member.
type PeerClient interface {
	Lease(ctx context.Context, addr string, req LeaseRequest) (LeaseReply, error)
	RequestVote(ctx context.Context, addr string, req VoteRequest) (VoteReply, error)
}

// LeaseRequest is the primary's heartbeat.
type LeaseRequest struct {
	Epoch    uint64
	LeaderID string
	LSN      uint64
}

// LeaseReply is a fleet member's answer. OK means the member accepts this
// leader for this epoch and the lease counts toward quorum; !OK with a
// higher Epoch tells a stale leader it has been superseded.
type LeaseReply struct {
	Epoch uint64
	OK    bool
}

// VoteRequest is a candidate's solicitation for epoch (its current + 1).
type VoteRequest struct {
	Epoch       uint64
	CandidateID string
	LSN         uint64
}

// VoteReply reports the voter's decision and position. VotedEpoch is the
// voter's highest granted epoch — a refused candidate uses it to jump its
// next proposal past the voter's promise instead of leapfrogging one
// epoch at a time against a rival candidate.
type VoteReply struct {
	Granted    bool
	Epoch      uint64
	VotedEpoch uint64
	VoterID    string
	VoterLSN   uint64
}

// Status is a point-in-time snapshot for stats and health surfaces.
type Status struct {
	NodeID     string `json:"node_id"`
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	VotedEpoch uint64 `json:"voted_epoch"`
	Fenced     bool   `json:"fenced"`
	LeaderID   string `json:"leader_id,omitempty"`
	// LeaseAgeMs: for a leader, time since the last quorum ack; for a
	// follower, time since the last accepted lease. -1 before the first.
	LeaseAgeMs  int64  `json:"lease_age_ms"`
	Suspicion   int    `json:"suspicion"`
	Elections   uint64 `json:"elections"`
	LeaseRounds uint64 `json:"lease_rounds"`
}

// Coordinator runs the failover protocol for one node. Create with New,
// wire its OnLease/OnVote into the server's dispatch and its CheckWrite/
// CheckShip into the data path, then Start it.
type Coordinator struct {
	cfg    Config
	node   Node
	peers  PeerClient
	others []Peer

	mu           sync.Mutex
	term         TermState
	leaderID     string
	lastLease    time.Time // follower: last accepted heartbeat
	lastQuorum   time.Time // leader: last quorum ack
	haveQuorum   bool
	suspicion    int
	nextElection time.Time
	elections    uint64
	leaseRounds  uint64
	votedFor     string    // who the VotedEpoch grant went to ("?" = unknown, pre-restart)
	voteTime     time.Time // when the grant was made (promise window anchor)

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New validates the config, loads (or initializes) the durable term state,
// and returns a stopped coordinator.
func New(cfg Config, node Node, peers PeerClient) (*Coordinator, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("failover: NodeID required")
	}
	if cfg.TermPath == "" {
		return nil, errors.New("failover: TermPath required")
	}
	if cfg.LeaseInterval <= 0 {
		cfg.LeaseInterval = 500 * time.Millisecond
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 4 * cfg.LeaseInterval
	}
	if cfg.LeaseTimeout <= cfg.LeaseInterval {
		return nil, fmt.Errorf("failover: LeaseTimeout %v must exceed LeaseInterval %v", cfg.LeaseTimeout, cfg.LeaseInterval)
	}
	if cfg.SuspectTicks <= 0 {
		cfg.SuspectTicks = 2
	}
	if cfg.PromoteBudget <= 0 {
		cfg.PromoteBudget = 10 * cfg.LeaseTimeout
	}
	var others []Peer
	self := false
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		if p.ID == "" {
			return nil, errors.New("failover: peer with empty ID")
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("failover: duplicate peer ID %q", p.ID)
		}
		seen[p.ID] = true
		if p.ID == cfg.NodeID {
			self = true
			continue
		}
		others = append(others, p)
	}
	if len(cfg.Peers) > 0 && !self {
		return nil, fmt.Errorf("failover: NodeID %q not in fleet list", cfg.NodeID)
	}
	term, err := loadTerm(cfg.TermPath)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		node:   node,
		peers:  peers,
		others: others,
		term:   term,
		// Startup grace: give an existing leader one full timeout to reach
		// us before the detector can suspect anything.
		lastLease: time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if term.VotedEpoch > term.Epoch {
		// We granted a vote before a crash and don't know to whom or when.
		// Treat the promise as live from startup: conservative, and the
		// window is bounded, so no permanent livelock.
		c.votedFor = "?"
		c.voteTime = time.Now()
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("failover["+c.cfg.NodeID+"]: "+format, args...)
	}
}

func (c *Coordinator) quorum() int {
	if c.cfg.Quorum > 0 {
		return c.cfg.Quorum
	}
	n := len(c.cfg.Peers)
	if n == 0 {
		n = 1
	}
	return n/2 + 1
}

// leaseValidity is the window the leader enforces on itself — one
// interval shorter than the timeout voters enforce, so the leader always
// fences its own writes before any voter would depose it.
func (c *Coordinator) leaseValidity() time.Duration {
	v := c.cfg.LeaseTimeout - c.cfg.LeaseInterval
	if v < c.cfg.LeaseTimeout/2 {
		v = c.cfg.LeaseTimeout / 2
	}
	return v
}

// promiseWindow bounds how long a vote grant nacks the incumbent's lease:
// long enough to cover the candidate's election round (rpcTimeout) plus
// its promotion budget (LeaseTimeout), after which an unestablished
// candidacy is dead and resuming acks to a live leader is safe. Without
// the bound, a partitioned node that inflated its VotedEpoch through
// failed self-elections would nack the healthy leader forever.
func (c *Coordinator) promiseWindow() time.Duration {
	return 2 * c.cfg.LeaseTimeout
}

// promiseActiveLocked reports whether a vote grant currently obliges us to
// nack a lease at the given epoch. A self-vote never does: receiving a
// live leader's lease just means our own candidacy lost — we abandon it
// (the election path re-checks lastLease before promoting) rather than
// deadlock the fleet. Callers hold c.mu.
func (c *Coordinator) promiseActiveLocked(leaseEpoch uint64) bool {
	if c.term.VotedEpoch <= leaseEpoch {
		return false
	}
	if c.votedFor == c.cfg.NodeID {
		return false
	}
	return time.Since(c.voteTime) <= c.promiseWindow()
}

func (c *Coordinator) rpcTimeout() time.Duration {
	t := c.cfg.LeaseTimeout / 2
	if t < 50*time.Millisecond {
		t = 50 * time.Millisecond
	}
	return t
}

func (c *Coordinator) leading() bool { return c.node.Role() == "primary" }

// Start launches the protocol loop. The first round runs immediately, so
// a sole healthy primary holds its lease within one RPC round trip of
// startup rather than one full interval.
func (c *Coordinator) Start() {
	c.startOnce.Do(func() { go c.run() })
}

// Close stops the loop. It does not unfence or otherwise mutate state.
func (c *Coordinator) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.startOnce.Do(func() { close(c.done) }) // never started: mark done
	<-c.done
	return nil
}

func (c *Coordinator) run() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.LeaseInterval)
	defer t.Stop()
	c.step()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.step()
		}
	}
}

func (c *Coordinator) step() {
	if c.Fenced() {
		return
	}
	if c.leading() {
		c.leaseRound()
	} else {
		c.detect()
	}
}

// leaseRound broadcasts the heartbeat and tallies acks. Self counts: a
// single-node fleet holds its own lease.
func (c *Coordinator) leaseRound() {
	c.mu.Lock()
	epoch := c.term.Epoch
	c.leaseRounds++
	c.mu.Unlock()
	lsn := c.node.AppliedLSN()

	// The validity window must be anchored at the round's START: voters
	// record lastLease at receipt, which is up to one RPC timeout before
	// wg.Wait() returns. Anchoring after the wait would start the leader's
	// self-enforced clock later than every voter's timeout clock and eat
	// the one-interval safety margin — a partitioned primary could still
	// pass CheckWrite while its successor is being elected.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), c.rpcTimeout())
	defer cancel()
	var (
		tally   sync.Mutex
		acks    = 1
		maxSeen uint64
		wg      sync.WaitGroup
	)
	for _, p := range c.others {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			rep, err := c.peers.Lease(ctx, p.Addr, LeaseRequest{Epoch: epoch, LeaderID: c.cfg.NodeID, LSN: lsn})
			if err != nil {
				return
			}
			tally.Lock()
			defer tally.Unlock()
			if rep.Epoch > maxSeen {
				maxSeen = rep.Epoch
			}
			if rep.OK {
				acks++
			}
		}(p)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if maxSeen > c.term.Epoch {
		if !c.plausibleJumpLocked(maxSeen) {
			c.logf("ignoring implausible epoch %d in lease ack (at %d)", maxSeen, c.term.Epoch)
			return
		}
		c.adoptLocked(maxSeen) // superseded: this latches Fenced for a leader
		return
	}
	if acks >= c.quorum() {
		if start.After(c.lastQuorum) {
			c.lastQuorum = start
		}
		c.haveQuorum = true
	}
}

// detect is the follower-side failure detector: timeout raises suspicion,
// sustained suspicion triggers an election.
func (c *Coordinator) detect() {
	c.mu.Lock()
	if c.term.Fenced {
		c.mu.Unlock()
		return
	}
	if time.Since(c.lastLease) <= c.cfg.LeaseTimeout {
		c.suspicion = 0
		c.mu.Unlock()
		return
	}
	c.suspicion++
	if c.suspicion < c.cfg.SuspectTicks || time.Now().Before(c.nextElection) {
		c.mu.Unlock()
		return
	}
	// Vote for self, durably, before soliciting anyone — a crash mid-
	// election must not let this node grant the same epoch elsewhere.
	proposed := c.term.Epoch + 1
	if c.term.VotedEpoch >= proposed {
		proposed = c.term.VotedEpoch + 1
	}
	c.term.VotedEpoch = proposed
	c.votedFor = c.cfg.NodeID
	c.voteTime = time.Now()
	if err := saveTerm(c.cfg.TermPath, c.term); err != nil {
		c.logf("cannot persist candidacy: %v", err)
		c.mu.Unlock()
		return
	}
	c.elections++
	// Randomized retry spacing decorrelates rival candidates.
	c.nextElection = time.Now().Add(c.cfg.LeaseInterval +
		time.Duration(rand.Int63n(int64(c.cfg.LeaseTimeout))))
	c.mu.Unlock()

	c.runElection(proposed)
}

func (c *Coordinator) runElection(proposed uint64) {
	lsn := c.node.AppliedLSN()
	c.logf("election: proposing epoch %d at LSN %d", proposed, lsn)
	// Same anchoring rule as leaseRound: a won election doubles as the
	// first lease quorum, and voters started their timeout clocks at
	// grant receipt — before the RPC fan-out returned.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), c.rpcTimeout())
	var (
		tally    sync.Mutex
		granted  = 1
		maxSeen  uint64
		maxVoted uint64
		wg       sync.WaitGroup
	)
	for _, p := range c.others {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			rep, err := c.peers.RequestVote(ctx, p.Addr, VoteRequest{Epoch: proposed, CandidateID: c.cfg.NodeID, LSN: lsn})
			if err != nil {
				return
			}
			tally.Lock()
			defer tally.Unlock()
			if rep.Epoch > maxSeen {
				maxSeen = rep.Epoch
			}
			if rep.VotedEpoch > maxVoted {
				maxVoted = rep.VotedEpoch
			}
			if rep.Granted {
				granted++
			}
		}(p)
	}
	wg.Wait()
	cancel()

	c.mu.Lock()
	if maxSeen > c.term.Epoch {
		if !c.plausibleJumpLocked(maxSeen) {
			c.logf("ignoring implausible epoch %d in vote reply (at %d)", maxSeen, c.term.Epoch)
			c.mu.Unlock()
			return
		}
		// Someone is ahead of us; adopt and stand down for a grace period.
		c.adoptLocked(maxSeen)
		c.lastLease = time.Now()
		c.suspicion = 0
		c.mu.Unlock()
		return
	}
	if granted < c.quorum() {
		c.logf("election: epoch %d got %d/%d votes", proposed, granted, c.quorum())
		if maxVoted > c.term.VotedEpoch && maxVoted-c.term.Epoch <= MaxEpochJump {
			// A voter already promised a higher epoch (likely to a rival
			// candidate). Raise our own floor so the next proposal jumps
			// past it instead of leapfrogging one epoch per round. Not a
			// grant to anyone, so raising VotedEpoch is safe — it can only
			// make us refuse more. The same plausibility bound as adoption
			// applies: a corrupt or hostile VotedEpoch must not poison our
			// own next proposal into overflow territory.
			c.term.VotedEpoch = maxVoted
			if err := saveTerm(c.cfg.TermPath, c.term); err != nil {
				c.logf("cannot persist raised vote floor %d: %v", maxVoted, err)
			}
		}
		c.mu.Unlock()
		return
	}
	if time.Since(c.lastLease) <= c.cfg.LeaseTimeout {
		// The incumbent's lease resurfaced while we campaigned (we ack it
		// despite our own self-vote — a candidacy never blocks a live
		// leader). Promoting now could race its still-valid quorum: abandon.
		c.logf("election: epoch %d won but leader resurfaced; abandoning", proposed)
		c.suspicion = 0
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	// Won. Every granting voter had seen no lease for a full timeout, and
	// any quorum the old primary could have been acked by intersects the
	// vote quorum — so the old primary's self-enforced validity window has
	// already lapsed and its writes are fenced. Drain and promote.
	c.logf("election: won epoch %d with %d/%d votes; promoting", proposed, granted, len(c.cfg.Peers))
	pctx, pcancel := context.WithTimeout(context.Background(), c.cfg.PromoteBudget)
	err := c.node.Promote(pctx)
	pcancel()
	if err != nil {
		c.logf("promotion at epoch %d failed: %v", proposed, err)
		return
	}
	c.mu.Lock()
	c.term.Epoch = proposed
	if err := saveTerm(c.cfg.TermPath, c.term); err != nil {
		c.logf("cannot persist won epoch %d: %v", proposed, err)
	}
	c.leaderID = c.cfg.NodeID
	// The vote quorum doubles as the first lease quorum: writes are
	// accepted immediately, and the heartbeat loop takes over next tick.
	// Anchored at the vote fan-out's start — if promotion ate the whole
	// validity window, writes stay fenced until the broadcast below
	// re-establishes a fresh quorum, which is the conservative outcome.
	if start.After(c.lastQuorum) {
		c.lastQuorum = start
	}
	c.haveQuorum = true
	c.suspicion = 0
	c.mu.Unlock()
	// Broadcast the new epoch immediately — fences the old primary on
	// first contact and squashes any rival candidacy before its next
	// detector tick, instead of waiting out a full lease interval.
	c.leaseRound()
}

// adoptLocked moves the established epoch forward. A node that was
// serving as primary at a lower epoch has been superseded: it latches
// Fenced, durably, and never serves writes again. Callers hold c.mu.
func (c *Coordinator) adoptLocked(epoch uint64) {
	if epoch <= c.term.Epoch {
		return
	}
	c.term.Epoch = epoch
	if c.term.VotedEpoch < epoch {
		c.term.VotedEpoch = epoch
	}
	if c.leading() {
		c.term.Fenced = true
		c.logf("superseded by epoch %d: fenced", epoch)
	}
	if err := saveTerm(c.cfg.TermPath, c.term); err != nil {
		c.logf("cannot persist adopted epoch %d: %v", epoch, err)
	}
}

// OnLease handles a heartbeat from a claimed leader (wired from the
// server's dispatch). It never errors: the reply carries everything a
// stale or current leader needs to know. Accepting a leader other than the
// one this node followed before tells the node so (Node.LeaderChanged).
func (c *Coordinator) OnLease(req LeaseRequest) (rep LeaseReply) {
	c.mu.Lock()
	prev := c.leaderID
	defer func() {
		c.mu.Unlock()
		if rep.OK && prev != "" && prev != req.LeaderID {
			c.logf("leader %s replaced by %s at epoch %d", prev, req.LeaderID, req.Epoch)
			c.node.LeaderChanged(req.Epoch, req.LeaderID)
		}
	}()
	if req.Epoch < c.term.Epoch {
		return LeaseReply{Epoch: c.term.Epoch, OK: false}
	}
	if req.Epoch > c.term.Epoch {
		if !c.plausibleJumpLocked(req.Epoch) {
			c.logf("refusing implausible lease epoch %d from %s (at %d)", req.Epoch, req.LeaderID, c.term.Epoch)
			return LeaseReply{Epoch: c.term.Epoch, OK: false}
		}
		c.adoptLocked(req.Epoch)
	}
	if c.term.Fenced {
		return LeaseReply{Epoch: c.term.Epoch, OK: false}
	}
	if c.promiseActiveLocked(req.Epoch) {
		// Promised a newer candidate: stop acking this leader so its lease
		// lapses before the candidate can win.
		return LeaseReply{Epoch: c.term.Epoch, OK: false}
	}
	c.lastLease = time.Now()
	c.leaderID = req.LeaderID
	c.suspicion = 0
	return LeaseReply{Epoch: c.term.Epoch, OK: true}
}

// OnVote handles a vote solicitation (wired from the server's dispatch).
func (c *Coordinator) OnVote(req VoteRequest) VoteReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := VoteReply{Epoch: c.term.Epoch, VotedEpoch: c.term.VotedEpoch, VoterID: c.cfg.NodeID, VoterLSN: c.node.AppliedLSN()}
	if req.Epoch <= c.term.Epoch || req.Epoch <= c.term.VotedEpoch {
		return rep // already established or already promised this epoch
	}
	if !c.plausibleJumpLocked(req.Epoch) {
		// Granting would durably set VotedEpoch to an absurd value —
		// a later candidacy's VotedEpoch+1 could overflow to zero and
		// wedge the fleet. Refuse without recording anything.
		c.logf("refusing implausible vote epoch %d from %s (at %d)", req.Epoch, req.CandidateID, c.term.Epoch)
		return rep
	}
	if !c.term.Fenced {
		// Protect a live leader: refuse while its lease is fresh.
		if c.leading() {
			if c.haveQuorum && time.Since(c.lastQuorum) <= c.cfg.LeaseTimeout {
				return rep
			}
		} else if time.Since(c.lastLease) <= c.cfg.LeaseTimeout {
			return rep
		}
		// Rank: refuse candidates behind our own position (highest applied
		// LSN wins, ties toward the lower node ID) — we would rather lead.
		// A fenced node skips this: its position may include doomed
		// commits from its severed timeline and must not block progress.
		if !c.leading() {
			if req.LSN < rep.VoterLSN || (req.LSN == rep.VoterLSN && req.CandidateID > c.cfg.NodeID) {
				return rep
			}
		}
	}
	c.term.VotedEpoch = req.Epoch
	c.votedFor = req.CandidateID
	c.voteTime = time.Now()
	if err := saveTerm(c.cfg.TermPath, c.term); err != nil {
		c.logf("cannot persist vote for epoch %d: %v", req.Epoch, err)
		return rep // an unpersisted grant is no grant
	}
	c.logf("granted epoch %d to %s (LSN %d vs ours %d)", req.Epoch, req.CandidateID, req.LSN, rep.VoterLSN)
	// Granting resets our own detector: give the candidate a full timeout
	// to establish itself before we'd consider a rival candidacy.
	c.lastLease = time.Now()
	c.suspicion = 0
	rep.Granted = true
	rep.VotedEpoch = c.term.VotedEpoch
	return rep
}

// CheckWrite gates a mutation. reqEpoch 0 means the client is not
// epoch-aware (plain clients); any other value must match the node's
// established epoch exactly. A leader additionally needs a live quorum
// lease — this is what fences a partitioned primary's writes before a
// rival can be elected.
func (c *Coordinator) CheckWrite(reqEpoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.term.Fenced {
		return fmt.Errorf("%w: node superseded at epoch %d", ErrFenced, c.term.Epoch)
	}
	if reqEpoch != 0 && reqEpoch != c.term.Epoch {
		return fmt.Errorf("%w: request stamped epoch %d, node at epoch %d", ErrFenced, reqEpoch, c.term.Epoch)
	}
	if c.leading() {
		if !c.haveQuorum || time.Since(c.lastQuorum) > c.leaseValidity() {
			return fmt.Errorf("%w: no quorum lease at epoch %d", ErrFenced, c.term.Epoch)
		}
	}
	return nil
}

// CheckShip gates the segment-ship path (Segments/FetchSegment). Same
// epoch-match rule as writes, minus the lease requirement: followers ship
// to cascading replicas without holding any lease.
func (c *Coordinator) CheckShip(reqEpoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.term.Fenced {
		return fmt.Errorf("%w: node superseded at epoch %d", ErrFenced, c.term.Epoch)
	}
	if reqEpoch != 0 && reqEpoch != c.term.Epoch {
		return fmt.Errorf("%w: request stamped epoch %d, node at epoch %d", ErrFenced, reqEpoch, c.term.Epoch)
	}
	return nil
}

// Epoch returns the established epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term.Epoch
}

// Fenced reports whether this node has been superseded.
func (c *Coordinator) Fenced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term.Fenced
}

// Status snapshots the coordinator for stats and health surfaces.
func (c *Coordinator) Status() Status {
	role := c.node.Role()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		NodeID:      c.cfg.NodeID,
		Role:        role,
		Epoch:       c.term.Epoch,
		VotedEpoch:  c.term.VotedEpoch,
		Fenced:      c.term.Fenced,
		LeaderID:    c.leaderID,
		LeaseAgeMs:  -1,
		Suspicion:   c.suspicion,
		Elections:   c.elections,
		LeaseRounds: c.leaseRounds,
	}
	if role == "primary" {
		if c.haveQuorum {
			s.LeaseAgeMs = time.Since(c.lastQuorum).Milliseconds()
		}
	} else if !c.lastLease.IsZero() {
		s.LeaseAgeMs = time.Since(c.lastLease).Milliseconds()
	}
	return s
}

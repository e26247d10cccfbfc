package server

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/failover"
)

// Failover integration: the coordinator (internal/failover) runs inside
// the served node and speaks its protocol over this package's wire — the
// LEASE / VOTE frames added in protocol v3 — so the failure detector and
// election traverse exactly the network paths client traffic does. A
// partition that cuts clients off also cuts the lease, and the two views
// of "dead" cannot diverge.

// serverNode adapts a Server to the coordinator's Node interface.
type serverNode struct{ s *Server }

func (n serverNode) Role() string { return n.s.role() }

// AppliedLSN is the node's replication position: the archive LSN on a
// primary (original or promoted), the durably applied LSN on a follower.
// Elections compare these to pick the candidate that loses nothing.
func (n serverNode) AppliedLSN() uint64 {
	if p := n.s.promoted.Load(); p != nil {
		return p.Stats().ArchiveLSN
	}
	if f := n.s.opt.Follower; f != nil {
		return f.Stats().AppliedLSN
	}
	return n.s.opt.Store.Stats().ArchiveLSN
}

// Promote drains whatever segments are still reachable, then promotes the
// follower. The drain is best-effort and bounded by ctx: during a real
// failover the old primary is gone, so CatchUp stops making progress
// quickly — the loop exits on the first pass that gains no LSN ground.
func (n serverNode) Promote(ctx context.Context) error {
	f := n.s.opt.Follower
	if f == nil {
		return fmt.Errorf("server: node %s is not a follower; cannot promote", n.s.opt.NodeID)
	}
	for ctx.Err() == nil {
		before := f.Stats().AppliedLSN
		if err := f.CatchUp(ctx); err != nil {
			break
		}
		if f.Stats().AppliedLSN == before {
			break
		}
	}
	_, err := n.s.Promote()
	return err
}

// LeaderChanged stalls a still-following node: its source is the primary
// the fleet just replaced, and a revived old primary re-archives its
// unacknowledged tail under LSNs the new primary has reused. The stall
// waits for the follower's lock, so it runs off the lease-answering path.
func (n serverNode) LeaderChanged(epoch uint64, leaderID string) {
	f := n.s.opt.Follower
	if f == nil || n.s.promoted.Load() != nil {
		return
	}
	go f.Stall(fmt.Errorf("the fleet elected %s primary at epoch %d; this follower's source was deposed — re-point it at the new primary", leaderID, epoch))
}

// AttachFailover builds, installs and starts the failover coordinator for
// this node. cfg.NodeID defaults to Options.NodeID. peers carries lease
// and vote RPCs to the rest of the fleet — FleetPeers speaks this
// package's own wire protocol. The returned coordinator is owned by the
// server; CloseFailover (or the coordinator's Close) stops it.
func (s *Server) AttachFailover(cfg failover.Config, peers failover.PeerClient) (*failover.Coordinator, error) {
	if cfg.NodeID == "" {
		cfg.NodeID = s.opt.NodeID
	}
	co, err := failover.New(cfg, serverNode{s}, peers)
	if err != nil {
		return nil, err
	}
	s.fo.Store(co)
	co.Start()
	return co, nil
}

// Failover returns the attached coordinator, or nil on standalone nodes.
func (s *Server) Failover() *failover.Coordinator { return s.fo.Load() }

// CloseFailover stops the coordinator, if one is attached.
func (s *Server) CloseFailover() {
	if co := s.fo.Swap(nil); co != nil {
		co.Close()
	}
}

// checkWriteEpoch fences a mutation before any of it executes (and before
// the idempotency lookup — a fenced node must not even replay acks, or a
// partitioned client could mistake them for live leadership).
func (s *Server) checkWriteEpoch(reqEpoch uint64) error {
	if co := s.fo.Load(); co != nil {
		return co.CheckWrite(reqEpoch)
	}
	return nil
}

// checkShipEpoch fences the segment-ship path: a deposed primary must not
// feed its abandoned timeline to followers.
func (s *Server) checkShipEpoch(reqEpoch uint64) error {
	if co := s.fo.Load(); co != nil {
		return co.CheckShip(reqEpoch)
	}
	return nil
}

// handleFailover serves one LEASE or VOTE frame. These arrive on the
// ping fast-path — no tenant gate, no drain cutoff — so the payload still
// carries the common request header, which is decoded and discarded here.
func (c *conn) handleFailover(typ byte, payload []byte) error {
	s := c.srv
	co := s.fo.Load()
	if co == nil {
		return fmt.Errorf("%w: node does not run a failover coordinator", ErrBadRequest)
	}
	d := &dec{payload}
	for i := 0; i < 3; i++ { // deadlineMs, minLSN, staleMs — unused here
		if _, err := d.u64(); err != nil {
			return err
		}
	}
	switch typ {
	case msgLease:
		epoch, err := d.u64()
		if err != nil {
			return err
		}
		leaderID, err := d.str()
		if err != nil {
			return err
		}
		lsn, err := d.u64()
		if err != nil {
			return err
		}
		rep := co.OnLease(failover.LeaseRequest{Epoch: epoch, LeaderID: leaderID, LSN: lsn})
		var e enc
		e.u64(rep.Epoch)
		ok := byte(0)
		if rep.OK {
			ok = 1
		}
		e.byt(ok)
		return c.writeFrame(msgLeaseAck, e.payload())
	case msgVote:
		epoch, err := d.u64()
		if err != nil {
			return err
		}
		candidateID, err := d.str()
		if err != nil {
			return err
		}
		lsn, err := d.u64()
		if err != nil {
			return err
		}
		rep := co.OnVote(failover.VoteRequest{Epoch: epoch, CandidateID: candidateID, LSN: lsn})
		var e enc
		granted := byte(0)
		if rep.Granted {
			granted = 1
		}
		e.byt(granted)
		e.u64(rep.Epoch)
		e.u64(rep.VotedEpoch)
		e.str(rep.VoterID)
		e.u64(rep.VoterLSN)
		return c.writeFrame(msgVoteRes, e.payload())
	default:
		return fmt.Errorf("%w: unknown failover frame 0x%02x", ErrProtocol, typ)
	}
}

// FleetPeers carries the coordinator's lease and vote RPCs over the wire
// protocol: one lazily dialed client per peer address, redialed after
// connection errors. It implements failover.PeerClient.
type FleetPeers struct {
	opt ClientOptions

	mu    sync.Mutex
	conns map[string]*Client
}

// NewFleetPeers builds a peer transport. opt.Addr is ignored; each call
// dials the address it is given.
func NewFleetPeers(opt ClientOptions) *FleetPeers {
	return &FleetPeers{opt: opt, conns: make(map[string]*Client)}
}

func (p *FleetPeers) client(addr string) (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.conns[addr]; ok {
		return c, nil
	}
	c, err := Dial(addr, p.opt)
	if err != nil {
		return nil, err
	}
	p.conns[addr] = c
	return c, nil
}

func (p *FleetPeers) drop(addr string) {
	p.mu.Lock()
	c := p.conns[addr]
	delete(p.conns, addr)
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Lease delivers one lease heartbeat to addr.
func (p *FleetPeers) Lease(ctx context.Context, addr string, req failover.LeaseRequest) (failover.LeaseReply, error) {
	c, err := p.client(addr)
	if err != nil {
		return failover.LeaseReply{}, err
	}
	rep, err := c.Lease(ctx, req)
	if err != nil {
		p.drop(addr)
	}
	return rep, err
}

// RequestVote solicits one vote from addr.
func (p *FleetPeers) RequestVote(ctx context.Context, addr string, req failover.VoteRequest) (failover.VoteReply, error) {
	c, err := p.client(addr)
	if err != nil {
		return failover.VoteReply{}, err
	}
	rep, err := c.RequestVote(ctx, req)
	if err != nil {
		p.drop(addr)
	}
	return rep, err
}

// Close closes every dialed peer connection.
func (p *FleetPeers) Close() error {
	p.mu.Lock()
	conns := p.conns
	p.conns = make(map[string]*Client)
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

var _ failover.PeerClient = (*FleetPeers)(nil)

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/replica"
	"repro/internal/wal"
)

// ClientOptions configures Dial.
type ClientOptions struct {
	// Token authenticates the session when the server runs with tenants.
	Token string
	// DialTimeout bounds the TCP connect + handshake. Default 5s.
	DialTimeout time.Duration
	// MaxFrame caps response frames the client will accept. Default
	// DefaultMaxFrame; the handshake lowers it to the server's cap.
	MaxFrame int
	// IOTimeout bounds each frame read/write when the call's context
	// carries no deadline. Default 30s.
	IOTimeout time.Duration
	// Gate is the default replica read gate for read calls; per-call
	// contexts cannot express it, so it is session state.
	Gate replica.ReadOptions
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	return o
}

// Row is one streamed query match.
type Row struct {
	ID  core.NodeID
	XML string
}

// Client is a wire-protocol session. It is safe for concurrent use; calls
// serialize on the single connection.
type Client struct {
	opt ClientOptions

	// epoch is the leadership epoch this session stamps on mutations and
	// segment-ship requests (wire v3). Zero means unstamped: the server
	// accepts it but cannot fence the caller against a deposed primary.
	// Fleet-aware callers set it from health reports.
	epoch atomic.Uint64

	mu        sync.Mutex
	nc        net.Conn
	br        *bufio.Reader
	dl        lazyDeadline // the socket deadline last armed
	armed     int          // deadlines armed, for tests
	sessionID uint64
	replica   bool
	closed    bool
}

// SetEpoch records the leadership epoch to stamp on subsequent mutations
// and segment fetches. Forward-only: a lower value never overwrites a
// higher one, so concurrent health probes cannot regress the fence.
func (c *Client) SetEpoch(epoch uint64) {
	for {
		cur := c.epoch.Load()
		if epoch <= cur || c.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// EpochHint returns the session's current epoch stamp.
func (c *Client) EpochHint() uint64 { return c.epoch.Load() }

// Dial connects, handshakes, and returns a live session.
func Dial(addr string, opt ClientOptions) (*Client, error) {
	opt = opt.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{opt: opt, nc: nc, br: bufio.NewReader(nc)}
	nc.SetDeadline(time.Now().Add(opt.DialTimeout))
	var e enc
	e.u64(ProtocolVersion)
	e.str(opt.Token)
	if err := writeFrame(nc, msgHello, e.payload()); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := readFrame(c.br, opt.MaxFrame)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if typ == msgErr {
		nc.Close()
		return nil, decodeErr(payload)
	}
	if typ != msgHelloOK {
		nc.Close()
		return nil, fmt.Errorf("%w: expected hello-ok, got 0x%02x", ErrProtocol, typ)
	}
	d := dec{payload}
	if c.sessionID, err = d.u64(); err != nil {
		nc.Close()
		return nil, err
	}
	srvMax, err := d.u64()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if int(srvMax) < c.opt.MaxFrame {
		c.opt.MaxFrame = int(srvMax)
	}
	role, err := d.byt()
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.replica = role == 1
	nc.SetDeadline(time.Time{})
	return c, nil
}

// SessionID returns the server-assigned session id.
func (c *Client) SessionID() uint64 { return c.sessionID }

// IsReplica reports whether the session fronts a read replica.
func (c *Client) IsReplica() bool { return c.replica }

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.nc.Close()
}

// ioDeadline picks the wire deadline: the context's plus a small grace,
// else IOTimeout from now. The grace lets the server's *typed* deadline
// error (it received our deadline and enforced it store-side) win the race
// against our own socket timeout firing at the same instant. The deadline
// is armed lazily (lazyDeadline), up to an eighth of the time left late.
func (c *Client) ioDeadline(ctx context.Context) (time.Time, bool) {
	now := time.Now()
	if dl, ok := ctx.Deadline(); ok {
		want := dl.Add(250 * time.Millisecond)
		return c.dl.nextAt(want, want.Sub(now)/8)
	}
	return c.dl.next(now, c.opt.IOTimeout)
}

// header encodes the common request header: the remaining deadline in
// milliseconds (this is deadline propagation: the server rebuilds a
// context with the same expiry) plus the session's replica read gate.
func (c *Client) header(ctx context.Context) (*enc, error) {
	var e enc
	var ms uint64
	if dl, ok := ctx.Deadline(); ok {
		left := time.Until(dl)
		if left <= 0 {
			return nil, context.DeadlineExceeded
		}
		ms = uint64(left / time.Millisecond)
		if ms == 0 {
			ms = 1
		}
	}
	e.u64(ms)
	e.u64(c.opt.Gate.MinLSN)
	e.u64(uint64(c.opt.Gate.MaxStaleness / time.Millisecond))
	return &e, nil
}

// roundTrip sends one request and reads response frames, handing each to
// fn until fn reports done. Any transport or protocol failure poisons the
// session (the stream can be mid-message), so the connection closes.
func (c *Client) roundTrip(ctx context.Context, typ byte, payload []byte, fn func(typ byte, payload []byte) (done bool, err error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// A poisoned or closed session is a connection-level condition, not
		// a protocol one: wrapping net.ErrClosed lets retry layers (fleet,
		// network transport) classify it as "drop this session and redial".
		return fmt.Errorf("client: session closed: %w", net.ErrClosed)
	}
	fail := func(err error) error {
		c.closed = true
		c.nc.Close()
		return err
	}
	if at, ok := c.ioDeadline(ctx); ok {
		c.armed++
		c.nc.SetDeadline(at)
	}
	if err := writeFrame(c.nc, typ, payload); err != nil {
		return fail(err)
	}
	for {
		rtyp, rpayload, err := readFrame(c.br, c.opt.MaxFrame)
		if err != nil {
			// A cut at (or past) our own deadline is the deadline, whatever
			// shape the socket error took — the server may have been about
			// to say the same thing in a frame we never got to read.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fail(ctxErr)
			}
			if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
				return fail(context.DeadlineExceeded)
			}
			return fail(err)
		}
		if rtyp == msgErr {
			return decodeErr(rpayload)
		}
		done, err := fn(rtyp, rpayload)
		if err != nil {
			return fail(err)
		}
		if done {
			return nil
		}
	}
}

// expect adapts roundTrip for single-frame responses.
func (c *Client) expect(ctx context.Context, typ byte, payload []byte, want byte) ([]byte, error) {
	var out []byte
	err := c.roundTrip(ctx, typ, payload, func(rtyp byte, rpayload []byte) (bool, error) {
		if rtyp != want {
			return false, fmt.Errorf("%w: expected 0x%02x, got 0x%02x", ErrProtocol, want, rtyp)
		}
		out = rpayload
		return true, nil
	})
	return out, err
}

// Ping round-trips a no-op frame.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.expect(ctx, msgPing, nil, msgPong)
	return err
}

// QueryStream evaluates an XPath expression and streams each match to fn
// as it arrives; fn returning an error poisons the session (rows may
// still be in flight).
func (c *Client) QueryStream(ctx context.Context, expr string, fn func(Row) error) error {
	hdr, err := c.header(ctx)
	if err != nil {
		return err
	}
	hdr.str(expr)
	return c.roundTrip(ctx, msgQuery, hdr.payload(), func(rtyp byte, rpayload []byte) (bool, error) {
		switch rtyp {
		case msgRow:
			d := dec{rpayload}
			id, err := d.u64()
			if err != nil {
				return false, err
			}
			xml, err := d.str()
			if err != nil {
				return false, err
			}
			return false, fn(Row{ID: core.NodeID(id), XML: xml})
		case msgDone:
			return true, nil
		default:
			return false, fmt.Errorf("%w: unexpected frame 0x%02x in query stream", ErrProtocol, rtyp)
		}
	})
}

// Query collects a streamed query into memory.
func (c *Client) Query(ctx context.Context, expr string) ([]Row, error) {
	var rows []Row
	err := c.QueryStream(ctx, expr, func(r Row) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Value evaluates an XPath expression to its string value.
func (c *Client) Value(ctx context.Context, expr string) (string, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return "", err
	}
	hdr.str(expr)
	payload, err := c.expect(ctx, msgValue, hdr.payload(), msgValueRes)
	if err != nil {
		return "", err
	}
	d := dec{payload}
	return d.str()
}

// ReadNode renders one node's subtree as XML.
func (c *Client) ReadNode(ctx context.Context, id core.NodeID) (string, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return "", err
	}
	hdr.u64(uint64(id))
	payload, err := c.expect(ctx, msgReadNode, hdr.payload(), msgValueRes)
	if err != nil {
		return "", err
	}
	d := dec{payload}
	return d.str()
}

// Insert runs one XUpdate primitive against target and returns the new
// node's id. The ack means the change is committed.
func (c *Client) Insert(ctx context.Context, op InsertOp, target core.NodeID, frag string) (core.NodeID, error) {
	return c.InsertIdem(ctx, op, target, frag, "")
}

// InsertIdem is Insert carrying an idempotency token: re-sending the same
// token after an ambiguous outcome (connection cut before the ack arrived)
// replays the original committed ack instead of applying twice. An empty
// token disables dedup.
func (c *Client) InsertIdem(ctx context.Context, op InsertOp, target core.NodeID, frag, idemToken string) (core.NodeID, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return 0, err
	}
	hdr.str(idemToken)
	hdr.u64(c.epoch.Load())
	hdr.byt(byte(op))
	hdr.u64(uint64(target))
	hdr.str(frag)
	payload, err := c.expect(ctx, msgInsert, hdr.payload(), msgNodeID)
	if err != nil {
		return 0, err
	}
	d := dec{payload}
	id, err := d.u64()
	return core.NodeID(id), err
}

// Delete removes a node's subtree; the ack means committed.
func (c *Client) Delete(ctx context.Context, id core.NodeID) error {
	return c.DeleteIdem(ctx, id, "")
}

// DeleteIdem is Delete carrying an idempotency token (see InsertIdem).
func (c *Client) DeleteIdem(ctx context.Context, id core.NodeID, idemToken string) error {
	hdr, err := c.header(ctx)
	if err != nil {
		return err
	}
	hdr.str(idemToken)
	hdr.u64(c.epoch.Load())
	hdr.u64(uint64(id))
	_, err = c.expect(ctx, msgDelete, hdr.payload(), msgOK)
	return err
}

// Load appends a document or fragment at top level, returning the id of
// its first node.
func (c *Client) Load(ctx context.Context, frag string) (core.NodeID, error) {
	return c.LoadIdem(ctx, frag, "")
}

// LoadIdem is Load carrying an idempotency token (see InsertIdem).
func (c *Client) LoadIdem(ctx context.Context, frag, idemToken string) (core.NodeID, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return 0, err
	}
	hdr.str(idemToken)
	hdr.u64(c.epoch.Load())
	hdr.str(frag)
	payload, err := c.expect(ctx, msgLoad, hdr.payload(), msgNodeID)
	if err != nil {
		return 0, err
	}
	d := dec{payload}
	id, err := d.u64()
	return core.NodeID(id), err
}

// Segments lists the server's archived segments with LSN strictly greater
// than after — the network half of replica.Transport.Segments.
func (c *Client) Segments(ctx context.Context, after uint64) ([]wal.SegmentInfo, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return nil, err
	}
	hdr.u64(after)
	hdr.u64(c.epoch.Load())
	payload, err := c.expect(ctx, msgSegments, hdr.payload(), msgSegList)
	if err != nil {
		return nil, err
	}
	d := dec{payload}
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n > maxSegList {
		return nil, fmt.Errorf("%w: %d segments in one listing", ErrProtocol, n)
	}
	out := make([]wal.SegmentInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		lsn, err := d.u64()
		if err != nil {
			return nil, err
		}
		size, err := d.u64()
		if err != nil {
			return nil, err
		}
		out = append(out, wal.SegmentInfo{LSN: lsn, Bytes: int64(size), Name: wal.SegmentFileName(lsn)})
	}
	return out, nil
}

// FetchSegment reassembles one segment's bytes from the chunked stream,
// verifying the declared total — the network half of
// replica.Transport.Fetch. Content validation (CRCs, page checksums) stays
// with the follower, exactly as for a directory transport.
func (c *Client) FetchSegment(ctx context.Context, lsn uint64) ([]byte, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return nil, err
	}
	hdr.u64(lsn)
	hdr.u64(c.epoch.Load())
	var buf []byte
	err = c.roundTrip(ctx, msgFetchSegment, hdr.payload(), func(rtyp byte, rpayload []byte) (bool, error) {
		switch rtyp {
		case msgSegData:
			buf = append(buf, rpayload...)
			return false, nil
		case msgDone:
			d := dec{rpayload}
			total, err := d.u64()
			if err != nil {
				return false, err
			}
			if total != uint64(len(buf)) {
				return false, fmt.Errorf("%w: segment stream carried %d bytes, declared %d", ErrProtocol, len(buf), total)
			}
			return true, nil
		default:
			return false, fmt.Errorf("%w: unexpected frame 0x%02x in segment stream", ErrProtocol, rtyp)
		}
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Lease delivers one failover lease heartbeat (wire v3). Coordinators use
// this through FleetPeers; it is exported so drills and tooling can speak
// the failover plane directly.
func (c *Client) Lease(ctx context.Context, req failover.LeaseRequest) (failover.LeaseReply, error) {
	var rep failover.LeaseReply
	hdr, err := c.header(ctx)
	if err != nil {
		return rep, err
	}
	hdr.u64(req.Epoch)
	hdr.str(req.LeaderID)
	hdr.u64(req.LSN)
	payload, err := c.expect(ctx, msgLease, hdr.payload(), msgLeaseAck)
	if err != nil {
		return rep, err
	}
	d := dec{payload}
	if rep.Epoch, err = d.u64(); err != nil {
		return rep, err
	}
	ok, err := d.byt()
	if err != nil {
		return rep, err
	}
	rep.OK = ok == 1
	return rep, nil
}

// RequestVote solicits one failover election vote (wire v3).
func (c *Client) RequestVote(ctx context.Context, req failover.VoteRequest) (failover.VoteReply, error) {
	var rep failover.VoteReply
	hdr, err := c.header(ctx)
	if err != nil {
		return rep, err
	}
	hdr.u64(req.Epoch)
	hdr.str(req.CandidateID)
	hdr.u64(req.LSN)
	payload, err := c.expect(ctx, msgVote, hdr.payload(), msgVoteRes)
	if err != nil {
		return rep, err
	}
	d := dec{payload}
	granted, err := d.byt()
	if err != nil {
		return rep, err
	}
	rep.Granted = granted == 1
	if rep.Epoch, err = d.u64(); err != nil {
		return rep, err
	}
	if rep.VotedEpoch, err = d.u64(); err != nil {
		return rep, err
	}
	if rep.VoterID, err = d.str(); err != nil {
		return rep, err
	}
	if rep.VoterLSN, err = d.u64(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Stats fetches the server's full stats report.
func (c *Client) Stats(ctx context.Context) (StatsReport, error) {
	var rep StatsReport
	payload, err := c.jsonOp(ctx, msgStats)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(payload, &rep)
}

// Health fetches the server's readiness view.
func (c *Client) Health(ctx context.Context) (HealthReport, error) {
	var rep HealthReport
	payload, err := c.jsonOp(ctx, msgHealth)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(payload, &rep)
}

func (c *Client) jsonOp(ctx context.Context, typ byte) ([]byte, error) {
	hdr, err := c.header(ctx)
	if err != nil {
		return nil, err
	}
	return c.expect(ctx, typ, hdr.payload(), msgJSON)
}

package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/replica"
	"repro/internal/token"
)

// Options configures a Server. Exactly one of Store and Follower must be
// set: a primary serves reads and writes, a follower serves gated reads
// and sheds writes with ErrReadOnly.
type Options struct {
	// Store is the primary backend.
	Store *core.Store
	// Follower is the replica backend; reads go through its staleness
	// gates, writes are refused.
	Follower *replica.Follower

	// ArchiveDir, when set, enables the replication stream: followers may
	// list (SEGMENTS) and fetch (FETCH_SEGMENT) WAL segments from this
	// directory — the primary's own archive, or a follower's local copy
	// when cascading. Empty disables the two ops.
	ArchiveDir string

	// NodeID names this node in a failover fleet (AttachFailover). Empty
	// for standalone servers.
	NodeID string

	// Tenants maps auth tokens to tenant quotas. An empty map disables
	// authentication: every session lands in one shared unlimited tenant.
	Tenants map[string]Tenant

	// FleetToken is the failover-plane credential: only sessions that
	// authenticate with it may send LEASE / VOTE frames. Tenant tokens
	// never grant the plane — a tenant must not be able to fence a
	// primary or inflate vote promises. When empty, the plane is open
	// only on an unauthenticated server (no credentials configured at
	// all, e.g. a dev fleet on localhost); a server running with Tenants
	// and no FleetToken refuses every failover frame.
	FleetToken string

	// MaxConns bounds concurrently served connections. Default 256.
	MaxConns int
	// MaxAcceptQueue bounds accepted connections waiting FIFO for a slot;
	// beyond it new connections shed with ErrOverloaded. Default MaxConns.
	MaxAcceptQueue int
	// MaxFrame caps one frame's declared wire size. Default DefaultMaxFrame.
	MaxFrame int
	// IdemCacheSize bounds the idempotency-token dedup cache (committed
	// mutation acks kept for replay after an ambiguous outcome). Default
	// 4096 entries.
	IdemCacheSize int

	// ReadTimeout bounds reading a frame body once its length header has
	// arrived — a client dribbling bytes (slowloris) is cut here, and this
	// also bounds writes of response frames. Default 10s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response frame to a slow reader.
	// Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a session may sit between requests.
	// Default 2m.
	IdleTimeout time.Duration

	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.MaxAcceptQueue <= 0 {
		o.MaxAcceptQueue = o.MaxConns
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.IdemCacheSize <= 0 {
		o.IdemCacheSize = 4096
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	return o
}

// ServedStats counts what the service layer has done and shed.
type ServedStats struct {
	ConnsActive     int64 `json:"conns_active"`
	ConnsTotal      int64 `json:"conns_total"`
	ConnsShed       int64 `json:"conns_shed"`
	ConnsQueued     int64 `json:"conns_queued"`
	OpsInFlight     int64 `json:"ops_in_flight"`
	OpsTotal        int64 `json:"ops_total"`
	OpsShedQuota    int64 `json:"ops_shed_quota"`
	IdemReplays     int64 `json:"idem_replays"`
	FrameViolations int64 `json:"frame_violations"`
	// DeadlinesArmed counts the socket deadlines served connections set:
	// fewer than one per request on a busy session (lazyDeadline).
	DeadlinesArmed int64 `json:"deadlines_armed"`
	Draining       bool  `json:"draining"`
}

// Server serves the wire protocol over one store or one replica.
type Server struct {
	opt     Options
	tenants map[string]*tenantGate // auth token -> gate

	connSlots    chan struct{}
	slotWaiters  atomic.Int64
	drainCh      chan struct{} // closed when drain begins; wakes slot waiters
	draining     atomic.Bool
	drainOnce    sync.Once
	shutdownDone chan struct{} // closed when Shutdown finishes

	idem *idemCache

	// promoted is set when a follower-backed server is promoted in place:
	// the same listener keeps serving, but reads and writes switch to the
	// promoted store and health reports role "primary".
	promoted atomic.Pointer[core.Store]

	// fo is the failover coordinator, when this node runs in a fleet
	// (AttachFailover). It answers LEASE / VOTE frames and fences
	// stale-epoch writes and segment ships.
	fo atomic.Pointer[failover.Coordinator]

	opMu sync.Mutex // serializes op begin vs drain cutoff
	ops  sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	seq    atomic.Uint64 // session ids
	closed bool

	connsTotal      atomic.Int64
	connsShed       atomic.Int64
	opsInFlight     atomic.Int64
	opsTotal        atomic.Int64
	frameViolations atomic.Int64
	deadlinesArmed  atomic.Int64
}

// New validates opt and builds a Server.
func New(opt Options) (*Server, error) {
	if (opt.Store == nil) == (opt.Follower == nil) {
		return nil, errors.New("server: exactly one of Store and Follower must be set")
	}
	opt = opt.withDefaults()
	s := &Server{
		opt:          opt,
		tenants:      make(map[string]*tenantGate, len(opt.Tenants)),
		connSlots:    make(chan struct{}, opt.MaxConns),
		drainCh:      make(chan struct{}),
		shutdownDone: make(chan struct{}),
		conns:        make(map[*conn]struct{}),
		idem:         newIdemCache(opt.IdemCacheSize),
	}
	for token, t := range opt.Tenants {
		if token == "" {
			return nil, errors.New("server: empty auth token")
		}
		s.tenants[token] = newTenantGate(t)
	}
	if _, clash := s.tenants[opt.FleetToken]; clash { // "" is never a tenant token
		return nil, errors.New("server: FleetToken must not equal a tenant token")
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown or a fatal accept error.
// It returns nil after a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.connsTotal.Add(1)
		go s.serveConn(nc)
	}
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// CloseClientConns severs every currently served connection without
// draining — a fault drill, not a shutdown. Clients see a connection
// reset; the server keeps accepting. The resilient client and the network
// replication transport are expected to ride through this invisibly.
func (s *Server) CloseClientConns() {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
}

// Promote ends this server's follower role in place: the underlying
// replica is promoted (durably fenced against its old primary) and this
// same server — same listener, same sessions — starts serving writes
// from the promoted store and reporting role "primary", which is how the
// fleet client discovers the failover. The store is returned so the
// caller owns its lifecycle; it must outlive the server. Promoting a
// store-backed server is an error.
func (s *Server) Promote() (*core.Store, error) {
	if s.opt.Follower == nil {
		return nil, errors.New("server: not a replica; nothing to promote")
	}
	st, err := s.opt.Follower.Promote()
	if err != nil {
		return nil, err
	}
	s.promoted.Store(st)
	return st, nil
}

// PromotedStore returns the store a Promote installed, or nil. The
// caller owns its lifecycle (Close on shutdown).
func (s *Server) PromotedStore() *core.Store { return s.promoted.Load() }

// Stats snapshots the service-layer counters.
func (s *Server) Stats() ServedStats {
	return ServedStats{
		ConnsActive:     int64(len(s.connSlots)),
		ConnsTotal:      s.connsTotal.Load(),
		ConnsShed:       s.connsShed.Load(),
		ConnsQueued:     s.slotWaiters.Load(),
		OpsInFlight:     s.opsInFlight.Load(),
		OpsTotal:        s.opsTotal.Load(),
		OpsShedQuota:    s.quotaShed(),
		IdemReplays:     s.idem.hits.Load(),
		FrameViolations: s.frameViolations.Load(),
		DeadlinesArmed:  s.deadlinesArmed.Load(),
		Draining:        s.draining.Load(),
	}
}

func (s *Server) quotaShed() int64 {
	var n int64
	for _, g := range s.tenants {
		n += g.shed.Load()
	}
	return n
}

// beginServerOp admits one operation against the drain cutoff. The mutex
// makes "reject new ops" and "wait for in-flight ops" a single atomic
// boundary: no op can slip in between Shutdown's cutoff and its Wait.
// An admitted operation ends with endServerOp.
func (s *Server) beginServerOp() error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if s.draining.Load() {
		return fmt.Errorf("%w: drain in progress", ErrDraining)
	}
	s.ops.Add(1)
	s.opsInFlight.Add(1)
	s.opsTotal.Add(1)
	return nil
}

func (s *Server) endServerOp() {
	s.opsInFlight.Add(-1)
	s.ops.Done()
}

// Shutdown drains the server: stop accepting, finish in-flight operations,
// fsync the store, close every connection. ctx bounds how long in-flight
// operations may take; when it expires remaining connections are severed
// and ctx.Err() returned — the store itself stays crash-consistent (that
// is the WAL's job), only clients see the cut.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() {
		// Atomic drain cutoff: after this, beginServerOp refuses.
		s.opMu.Lock()
		s.draining.Store(true)
		s.opMu.Unlock()
		close(s.drainCh)

		s.mu.Lock()
		ln := s.ln
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		// Sever idle connections now; busy ones finish their current op
		// (the conn loop checks the drain flag after every op).
		for _, c := range conns {
			if !c.inOp.Load() {
				c.nc.Close()
			}
		}

		done := make(chan struct{})
		go func() {
			s.ops.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		// Force-close whatever remains (no-op after a clean drain).
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.closed = true
		s.mu.Unlock()

		if s.opt.Store != nil {
			if ferr := s.opt.Store.Flush(); ferr != nil && !errors.Is(ferr, core.ErrReadOnly) && err == nil {
				err = ferr
			}
		}
		close(s.shutdownDone)
	})
	<-s.shutdownDone
	return err
}

// conn is one served connection.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	gate *tenantGate // nil: no tenant quota
	sid  uint64
	// ver is the protocol version the hello negotiated. v2 sessions carry
	// no epoch field in mutation and segment-ship payloads; the decoders
	// treat them as unstamped (epoch 0).
	ver uint64
	// fleet marks a session authorized for the failover plane (LEASE /
	// VOTE): it presented Options.FleetToken, or the server runs with no
	// credentials at all.
	fleet bool
	inOp  atomic.Bool

	// Buffers reused from request to request, each let go once it outgrows
	// requestRetain, or out nodeFrameRetain (retained): in holds the request
	// frame being served, toks the fragment parsed out of it in place, ack a
	// mutation's reply, frame the frame writeFrame builds, and out the frame
	// node XML is rendered into (nodeFrame). What a request leaves in them
	// is dead once its reply is written.
	in, ack, frame, out []byte
	toks                []token.Token

	// The socket deadlines last armed (see lazyDeadline).
	readDL, writeDL lazyDeadline
}

// serveConn runs a connection's whole life: slot admission, handshake,
// request loop, teardown.
func (s *Server) serveConn(nc net.Conn) {
	if s.draining.Load() {
		s.refuse(nc, fmt.Errorf("%w: drain in progress", ErrDraining))
		return
	}
	if !s.admitConn(nc) {
		return
	}
	defer func() { <-s.connSlots }()

	c := &conn{srv: s, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		nc.Close()
	}()

	if err := c.handshake(); err != nil {
		c.writeErr(err)
		return
	}
	for {
		closeAfter, err := c.serveRequest()
		if err != nil {
			// Framing violations get a best-effort typed error frame so
			// the client learns *why* before the cut.
			if errors.Is(err, ErrProtocol) || errors.Is(err, ErrFrameTooLarge) {
				s.frameViolations.Add(1)
				c.writeErr(err)
			}
			return
		}
		if closeAfter {
			return
		}
	}
}

// admitConn claims a connection slot. The fast path takes a free slot;
// otherwise the connection waits FIFO in a bounded queue (Go's channel
// semantics wake blocked senders in order) and sheds with ErrOverloaded
// when the queue itself is full.
func (s *Server) admitConn(nc net.Conn) bool {
	select {
	case s.connSlots <- struct{}{}:
		return true
	default:
	}
	if s.slotWaiters.Add(1) > int64(s.opt.MaxAcceptQueue) {
		s.slotWaiters.Add(-1)
		s.connsShed.Add(1)
		s.refuse(nc, fmt.Errorf("%w: %d connections served and %d queued",
			core.ErrOverloaded, s.opt.MaxConns, s.opt.MaxAcceptQueue))
		return false
	}
	defer s.slotWaiters.Add(-1)
	select {
	case s.connSlots <- struct{}{}:
		return true
	case <-s.drainCh:
		s.refuse(nc, fmt.Errorf("%w: drain in progress", ErrDraining))
		return false
	}
}

// refuse sends one best-effort error frame and closes.
func (s *Server) refuse(nc net.Conn, err error) {
	nc.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
	writeFrame(nc, msgErr, encodeErr(err))
	nc.Close()
}

// handshake reads the hello frame under the read timeout (a client that
// connects and stalls is cut quickly — it has no session yet) and binds
// the session to a tenant.
func (c *conn) handshake() error {
	s := c.srv
	c.armRead(s.opt.ReadTimeout)
	typ, payload, err := readFrame(c.br, s.opt.MaxFrame)
	if err != nil {
		return err
	}
	if typ != msgHello {
		return fmt.Errorf("%w: expected hello, got 0x%02x", ErrProtocol, typ)
	}
	d := dec{payload}
	ver, err := d.u64()
	if err != nil {
		return err
	}
	if ver < MinProtocolVersion || ver > ProtocolVersion {
		return fmt.Errorf("%w: protocol version %d, server speaks %d-%d", ErrProtocol, ver, MinProtocolVersion, ProtocolVersion)
	}
	c.ver = ver
	token, err := d.str()
	if err != nil {
		return err
	}
	// Fleet and unauthenticated sessions keep the nil gate: no quota.
	switch {
	case s.opt.FleetToken != "" && token == s.opt.FleetToken:
		// The dedicated fleet credential; this is the ONLY token that
		// grants the failover plane on a server with a FleetToken set.
		c.fleet = true
	case len(s.tenants) == 0:
		// With no credentials configured anywhere the plane is open; the
		// moment a FleetToken exists, anonymous sessions lose it.
		c.fleet = s.opt.FleetToken == ""
	default:
		g, ok := s.tenants[token]
		if !ok {
			return fmt.Errorf("%w: unknown token", ErrAuth)
		}
		c.gate = g
	}
	c.sid = s.seq.Add(1)
	var e enc
	e.u64(c.sid)
	e.u64(uint64(s.opt.MaxFrame))
	role := byte(0)
	if s.opt.Follower != nil {
		role = 1
	}
	e.byt(role)
	return c.writeFrame(msgHelloOK, e.payload())
}

// serveRequest reads and executes one request. The length header waits
// under the idle timeout; once it arrives the body must finish within the
// read timeout — a dribbling client cannot pin the session.
//
// Neither deadline is armed anew for every request: see lazyDeadline. The
// body's is not armed at all when the whole frame is already buffered,
// which is what a small request on a live session nearly always is.
func (c *conn) serveRequest() (closeAfter bool, err error) {
	s := c.srv
	c.in, c.ack, c.frame = retained(c.in, requestRetain), retained(c.ack, requestRetain), retained(c.frame, requestRetain)
	c.toks, c.out = retained(c.toks, requestRetain), retained(c.out, nodeFrameRetain)
	if c.br.Buffered() < 4 {
		c.armRead(s.opt.IdleTimeout)
	}
	n, err := readFrameLen(c.br)
	if err != nil {
		return false, err
	}
	if uint64(c.br.Buffered()) < uint64(n) {
		c.armRead(s.opt.ReadTimeout)
	}
	typ, payload, body, err := readFrameBody(c.br, n, s.opt.MaxFrame, c.in)
	c.in = body
	if err != nil {
		return false, err
	}

	if typ == msgPing {
		return false, c.writeFrame(msgPong, nil)
	}
	// Failover-plane frames bypass tenant quotas and the drain cutoff,
	// like ping: an overloaded or draining node must still answer the
	// failure detector, or load alone would read as death and trigger a
	// spurious election. They do NOT bypass the fleet credential — a
	// tenant that could inject LEASE / VOTE frames could durably fence
	// the primary or wedge elections.
	if typ == msgLease || typ == msgVote {
		if !c.fleet {
			return false, c.writeErr(fmt.Errorf("%w: failover plane requires the fleet credential", ErrAuth))
		}
		if err := c.handleFailover(typ, payload); err != nil {
			if errors.Is(err, ErrProtocol) {
				s.frameViolations.Add(1)
				c.writeErr(err)
				return false, err
			}
			return false, c.writeErr(err)
		}
		return false, nil
	}

	// inOp goes up before the drain cutoff is asked, not after it admits the
	// op: Shutdown severs every connection it finds with inOp down once the
	// cutoff is set, so an op admitted before the cutoff must already show.
	// (Set after admission, a Shutdown between the two closed the connection
	// under its in-flight op — TestGracefulDrain's "connection reset by peer".)
	c.inOp.Store(true)
	if err := s.beginServerOp(); err != nil {
		// Drain cutoff: tell the client, then close so it reconnects
		// against a live server.
		c.writeErr(err)
		c.inOp.Store(false)
		return true, nil
	}
	// The response — success frames or the typed error — goes out before
	// endServerOp: a draining Shutdown waits for in-flight ops, and "in
	// flight" must include telling the client what happened.
	opErr := c.runOp(typ, payload)
	var werr error
	framing := opErr != nil && (errors.Is(opErr, ErrProtocol) || errors.Is(opErr, ErrFrameTooLarge))
	if opErr != nil && !framing {
		werr = c.writeErr(opErr)
	}
	c.inOp.Store(false)
	s.endServerOp()

	if framing {
		return false, opErr // framing broken: close with best-effort frame upstream
	}
	if werr != nil {
		return false, werr
	}
	return s.draining.Load(), nil
}

// runOp decodes the request header (deadline, read gate) and dispatches.
func (c *conn) runOp(typ byte, payload []byte) error {
	s := c.srv
	d := &dec{payload}
	deadlineMs, err := d.u64()
	if err != nil {
		return err
	}
	minLSN, err := d.u64()
	if err != nil {
		return err
	}
	staleMs, err := d.u64()
	if err != nil {
		return err
	}
	ctx := context.Background()
	if deadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMs)*time.Millisecond)
		defer cancel()
	}
	gate := replica.ReadOptions{MinLSN: minLSN, MaxStaleness: time.Duration(staleMs) * time.Millisecond}

	release, err := c.gate.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()

	return s.dispatch(c, ctx, typ, d, gate)
}

// send writes one whole frame of a response. A frame that more frames follow
// is buffered: it reaches the wire when the buffer fills — under a write
// timeout of its own — or with the frame that ends the response (last), error
// frame included, which flushes under the write timeout. A one-row query is
// one write and one deadline, not two.
func (c *conn) send(frame []byte, last bool) error {
	if last || c.bw.Available() < len(frame) {
		c.armWrite(c.srv.opt.WriteTimeout)
	}
	if _, err := c.bw.Write(frame); err != nil || !last {
		return err
	}
	return c.bw.Flush()
}

// writeFrame sends the frame that ends a response — the only one, or the one
// behind the frames queueFrame buffered.
func (c *conn) writeFrame(typ byte, payload []byte) error {
	c.frame = appendFrame(c.frame[:0], typ, payload)
	return c.send(c.frame, true)
}

// queueFrame sends one frame of a response that more frames follow.
func (c *conn) queueFrame(typ byte, payload []byte) error {
	c.frame = appendFrame(c.frame[:0], typ, payload)
	return c.send(c.frame, false)
}

// armRead and armWrite give the socket a read or write deadline timeout
// from now, when the one armed will not do (lazyDeadline).
func (c *conn) armRead(timeout time.Duration) {
	if at, ok := c.readDL.next(time.Now(), timeout); ok {
		c.srv.deadlinesArmed.Add(1)
		c.nc.SetReadDeadline(at)
	}
}

func (c *conn) armWrite(timeout time.Duration) {
	if at, ok := c.writeDL.next(time.Now(), timeout); ok {
		c.srv.deadlinesArmed.Add(1)
		c.nc.SetWriteDeadline(at)
	}
}

// lazyDeadline is a socket deadline armed only when it must move. Arming
// one costs a timer update in the runtime's poller on every request, so a
// deadline is armed an eighth of its timeout late, and left in place while
// it still falls between the wanted instant and an eighth of the timeout
// after it: a session's requests re-arm it about once per eighth of the
// timeout, not once each. It must move when it would fire early — time went
// on — or too late — a shorter timeout follows a longer one. A timeout so
// fires up to an eighth late, never early.
type lazyDeadline struct{ want, at time.Time }

// next returns the deadline to arm for one timeout from now, and whether it
// differs from the one armed.
func (d *lazyDeadline) next(now time.Time, timeout time.Duration) (time.Time, bool) {
	return d.nextAt(now.Add(timeout), timeout/8)
}

// nextAt is next for a wanted instant and the lateness allowed past it. The
// same instant wanted again keeps the deadline armed for it.
func (d *lazyDeadline) nextAt(want time.Time, slack time.Duration) (time.Time, bool) {
	slack = max(slack, 0) // late at most, never early
	if want.Equal(d.want) || !d.at.Before(want) && !d.at.After(want.Add(slack)) {
		return d.at, false
	}
	d.want, d.at = want, want.Add(slack)
	return d.at, true
}

// retained is b emptied for reuse, or nil once it has grown past limit
// bytes: one outsized request or reply does not pin its size for the
// session.
func retained[T any](b []T, limit uintptr) []T {
	if uintptr(cap(b))*unsafe.Sizeof(*new(T)) > limit {
		return nil
	}
	return b[:0]
}

func (c *conn) writeErr(err error) error {
	return c.writeFrame(msgErr, encodeErr(err))
}

// reqEpoch decodes the leadership-epoch stamp (wire v3). A v2 session's
// payloads carry no epoch field; those requests are unstamped (epoch 0),
// the same as a v3 client that has not learned an epoch yet.
func (c *conn) reqEpoch(d *dec) (uint64, error) {
	if c.ver < 3 {
		return 0, nil
	}
	return d.u64()
}

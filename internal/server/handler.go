package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/replica"
	"repro/internal/wal"
	"repro/internal/xmltok"
	"repro/internal/xpath"
)

// StatsReport is the msgStats / HTTP /stats payload: service-layer
// counters plus whichever backend is behind them.
type StatsReport struct {
	Server  ServedStats    `json:"server"`
	Role    string         `json:"role"` // "primary" | "replica"
	Store   *core.Stats    `json:"store,omitempty"`
	Replica *replica.Stats `json:"replica,omitempty"`

	// Failover is the coordinator's view (epoch, suspicion, election
	// counters) when this node runs in a fleet.
	Failover *failover.Status `json:"failover,omitempty"`

	// Runtime is the server process's garbage collector.
	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats is what the Go runtime reports of the collector's work since
// the process started, read once per report from runtime/metrics: two reads
// apart, the differences give bytes allocated and collections per operation.
type RuntimeStats struct {
	GCCycles      uint64 `json:"gc_cycles"`       // completed collections
	AllocBytes    uint64 `json:"alloc_bytes"`     // bytes allocated on the heap, all told
	LiveHeapBytes uint64 `json:"live_heap_bytes"` // heap marked live by the last collection
}

// runtimeMetrics are the samples runtimeStats reads, in RuntimeStats' order.
var runtimeMetrics = [...]string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/gc/heap/live:bytes"}

func runtimeStats() RuntimeStats {
	var samples [len(runtimeMetrics)]metrics.Sample
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var v [len(runtimeMetrics)]uint64
	for i, smp := range samples {
		if smp.Value.Kind() == metrics.KindUint64 {
			v[i] = smp.Value.Uint64()
		}
	}
	return RuntimeStats{GCCycles: v[0], AllocBytes: v[1], LiveHeapBytes: v[2]}
}

// HealthReport is the msgHealth / HTTP /readyz payload. Ready reflects
// the real store state: false while draining, degraded-read-only, or
// replica-stalled — exactly the conditions a load balancer should route
// around.
type HealthReport struct {
	Ready    bool               `json:"ready"`
	Draining bool               `json:"draining"`
	Role     string             `json:"role"`
	Reason   string             `json:"reason,omitempty"`
	Health   core.HealthSummary `json:"health"`
	Replica  *replica.Stats     `json:"replica,omitempty"`

	// Failover identity: which node this is, the leadership epoch it has
	// established, and whether it is fenced (deposed — permanently
	// refusing writes and segment ships). Zero-valued on standalone
	// servers.
	NodeID string `json:"node_id,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Fenced bool   `json:"fenced,omitempty"`

	// Replication position, surfaced top-level so load balancers and the
	// fleet client's freshest-replica routing read it without digging into
	// Replica. A primary reports its archive LSN as AppliedLSN.
	AppliedLSN  uint64 `json:"applied_lsn,omitempty"`
	LagSegments int    `json:"lag_segments,omitempty"`
	StallCause  string `json:"stall_cause,omitempty"`
}

func (s *Server) role() string {
	if s.opt.Follower != nil && s.promoted.Load() == nil {
		return "replica"
	}
	return "primary"
}

// withRead runs fn against the read backend. On a replica the caller's
// gate (MinLSN / MaxStaleness from the request header) is enforced; a
// primary — original or promoted in place — is never stale, so the gate
// is moot there.
func (s *Server) withRead(gate replica.ReadOptions, fn func(*core.Store) error) error {
	if p := s.promoted.Load(); p != nil {
		return fn(p)
	}
	if s.opt.Follower != nil {
		return s.opt.Follower.Read(gate, fn)
	}
	return fn(s.opt.Store)
}

// writeStore returns the mutable backend or the typed refusal.
func (s *Server) writeStore() (*core.Store, error) {
	if p := s.promoted.Load(); p != nil {
		return p, nil
	}
	if s.opt.Follower != nil {
		return nil, fmt.Errorf("%w: replica serves reads only", core.ErrReadOnly)
	}
	return s.opt.Store, nil
}

// statsReport assembles the full report.
func (s *Server) statsReport() StatsReport {
	rep := StatsReport{Server: s.Stats(), Role: s.role(), Runtime: runtimeStats()}
	if p := s.promoted.Load(); p != nil {
		st := p.Stats()
		rep.Store = &st
	} else if s.opt.Follower != nil {
		rs := s.opt.Follower.Stats()
		rep.Replica = &rs
	} else {
		st := s.opt.Store.Stats()
		rep.Store = &st
	}
	if co := s.fo.Load(); co != nil {
		fs := co.Status()
		rep.Failover = &fs
	}
	return rep
}

// healthReport assembles the readiness view from live backend state.
func (s *Server) healthReport() HealthReport {
	h := HealthReport{Ready: true, Draining: s.draining.Load(), Role: s.role()}
	if h.Draining {
		h.Ready = false
		h.Reason = "draining"
	}
	if p := s.promoted.Load(); p != nil {
		h.Role = "primary"
		h.Health = p.Health()
		h.AppliedLSN = p.Stats().ArchiveLSN
	} else if s.opt.Follower != nil {
		rs := s.opt.Follower.Stats()
		h.Replica = &rs
		h.AppliedLSN = rs.AppliedLSN
		h.LagSegments = rs.LagSegments
		h.StallCause = rs.StallCause
		switch {
		case rs.Promoted:
			h.Role = "primary"
		case rs.Stalled && h.Ready:
			h.Ready = false
			h.Reason = "replica stalled: " + rs.StallCause
		}
		s.opt.Follower.Read(replica.ReadOptions{}, func(st *core.Store) error {
			h.Health = st.Health()
			return nil
		})
	} else {
		h.Health = s.opt.Store.Health()
		h.AppliedLSN = s.opt.Store.Stats().ArchiveLSN
	}
	if h.Health.Degraded && h.Ready {
		h.Ready = false
		h.Reason = "store degraded: " + h.Health.ReadOnlyCause
	}
	h.NodeID = s.opt.NodeID
	if co := s.fo.Load(); co != nil {
		h.Epoch = co.Epoch()
		if co.Fenced() {
			h.Fenced = true
			h.Ready = false
			h.Reason = "fenced: deposed under a newer leadership epoch"
		}
	}
	return h
}

// dispatch runs one decoded request. d has been advanced past the common
// header; what remains is op-specific.
func (s *Server) dispatch(c *conn, ctx context.Context, typ byte, d *dec, gate replica.ReadOptions) error {
	switch typ {
	case msgQuery:
		expr, err := d.str()
		if err != nil {
			return err
		}
		return s.handleQuery(c, ctx, expr, gate)
	case msgValue:
		expr, err := d.str()
		if err != nil {
			return err
		}
		return s.handleValue(c, ctx, expr, gate)
	case msgReadNode:
		id, err := d.u64()
		if err != nil {
			return err
		}
		return s.handleReadNode(c, ctx, core.NodeID(id), gate)
	case msgStats:
		return c.writeJSON(s.statsReport())
	case msgHealth:
		return c.writeJSON(s.healthReport())
	case msgInsert, msgDelete, msgLoad:
		return s.runMutation(c, ctx, typ, d)
	case msgSegments:
		after, err := d.u64()
		if err != nil {
			return err
		}
		epoch, err := c.reqEpoch(d)
		if err != nil {
			return err
		}
		if err := s.checkShipEpoch(epoch); err != nil {
			return err
		}
		return s.handleSegments(c, after)
	case msgFetchSegment:
		lsn, err := d.u64()
		if err != nil {
			return err
		}
		epoch, err := c.reqEpoch(d)
		if err != nil {
			return err
		}
		if err := s.checkShipEpoch(epoch); err != nil {
			return err
		}
		return s.handleFetchSegment(c, ctx, lsn)
	default:
		return fmt.Errorf("%w: unknown request type 0x%02x", ErrProtocol, typ)
	}
}

// maxSegList caps one SEGMENTS response. A follower applies contiguously
// and polls again, so truncating a huge backlog costs one extra round trip
// per 4096 segments — and keeps the listing frame far under any frame cap.
const maxSegList = 4096

// archiveDir is the segment archive this server serves to followers: the
// configured one on a primary, the follower's own archive on a replica —
// which is what lets surviving replicas re-point at a promoted peer after
// failover (it owns the full history it applied).
func (s *Server) archiveDir() string {
	if s.opt.ArchiveDir != "" {
		return s.opt.ArchiveDir
	}
	if s.opt.Follower != nil {
		return s.opt.Follower.ArchiveDir()
	}
	return ""
}

// handleSegments lists archived segments beyond the follower's applied
// LSN: count, then (LSN, byte-size) pairs. Names are not sent — they are
// derivable (wal.SegmentFileName), and the wire stays minimal.
func (s *Server) handleSegments(c *conn, after uint64) error {
	dir := s.archiveDir()
	if dir == "" {
		return fmt.Errorf("%w: replication stream not enabled (server has no segment archive)", ErrBadRequest)
	}
	segs, err := wal.SegmentsAfter(dir, after)
	if err != nil {
		return err
	}
	if len(segs) > maxSegList {
		segs = segs[:maxSegList]
	}
	var e enc
	e.u64(uint64(len(segs)))
	for _, sg := range segs {
		e.u64(sg.LSN)
		e.u64(uint64(sg.Bytes))
	}
	return c.writeFrame(msgSegList, e.payload())
}

// handleFetchSegment streams one segment's raw bytes as msgSegData chunks
// sized under the negotiated frame cap, terminated by msgDone carrying the
// total so the follower can prove reassembly before validating content. A
// missing file crosses the wire as CodeSegmentGone (fs.ErrNotExist); a
// torn concurrent read is fine — the follower's CRC validation rejects it
// and refetches.
func (s *Server) handleFetchSegment(c *conn, ctx context.Context, lsn uint64) error {
	dir := s.archiveDir()
	if dir == "" {
		return fmt.Errorf("%w: replication stream not enabled (server has no segment archive)", ErrBadRequest)
	}
	data, err := os.ReadFile(filepath.Join(dir, wal.SegmentFileName(lsn)))
	if err != nil {
		return err
	}
	chunk := s.opt.MaxFrame - 64
	if chunk > 256<<10 {
		chunk = 256 << 10
	}
	for off := 0; off < len(data); off += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := c.queueFrame(msgSegData, data[off:end]); err != nil {
			return err
		}
	}
	var e enc
	e.u64(uint64(len(data)))
	return c.writeFrame(msgDone, e.payload())
}

func (c *conn) writeJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.writeFrame(msgJSON, b)
}

// nodeFrameRoom is what a frame puts in front of a node's XML: the frame
// header, a row's node id, and the length prefix of the string.
const nodeFrameRoom = frameHeader + 2*binary.MaxVarintLen64

// nodeFrameRetain caps the render buffer a connection keeps between
// responses (retained); one outsized node does not pin its size for the
// session.
const nodeFrameRetain = 1 << 20

// requestRetain caps each other buffer a connection keeps between requests:
// room for any single-order insert, not for a bulk load's frame and tokens,
// which go once the load is done, so a session that loaded once does not
// hold them while it reads.
const requestRetain = 64 << 10

// nodeFrame renders one node's subtree, under the caller's deadline, straight
// into a response frame: the store appends the XML behind room for the
// prefix, and the prefix — [length][typ][id, for a row][XML length] — is laid
// right in front of it once the length is known. One buffer per connection,
// reused; the XML is written once. The frame is valid until the next call.
func (c *conn) nodeFrame(ctx context.Context, st *core.Store, typ byte, id core.NodeID) ([]byte, error) {
	var room [nodeFrameRoom]byte
	buf, err := st.AppendNodeXML(ctx, append(c.out[:0], room[:]...), id)
	c.out = buf
	if err != nil {
		return nil, err
	}
	pre := room[:frameHeader]
	if typ == msgRow {
		pre = binary.AppendUvarint(pre, uint64(id))
	}
	pre = binary.AppendUvarint(pre, uint64(len(buf)-nodeFrameRoom))
	binary.BigEndian.PutUint32(pre, uint32(len(pre)-4+len(buf)-nodeFrameRoom))
	pre[4] = typ
	frame := buf[nodeFrameRoom-len(pre):]
	copy(frame, pre)
	return frame, nil
}

// handleQuery streams matches as they serialize: one msgRow per node,
// then msgDone with the count. Rows go out as the connection's buffer
// fills and with msgDone, each write under the write timeout, so a slow
// reader stalls its own session only — and only briefly.
func (s *Server) handleQuery(c *conn, ctx context.Context, expr string, gate replica.ReadOptions) error {
	var sent uint64
	err := s.withRead(gate, func(st *core.Store) error {
		// Cached-plan path: pushdown-eligible expressions stream ids off the
		// raw token sequence without building a navigational view.
		ids, err := xpath.QueryIDsCtx(ctx, st, expr)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			frame, err := c.nodeFrame(ctx, st, msgRow, id)
			if err != nil {
				return err
			}
			if err := c.send(frame, false); err != nil {
				return err
			}
			sent++
		}
		return nil
	})
	if err != nil {
		return err
	}
	var e enc
	e.u64(sent)
	return c.writeFrame(msgDone, e.payload())
}

// badExpr classifies an expression the compiler rejected as the client's
// mistake; every other query error passes through. The compile happens once,
// on the cached-plan path, so there is no parse up front to ask.
func badExpr(err error) error {
	if errors.Is(err, xpath.ErrSyntax) {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return err
}

func (s *Server) handleValue(c *conn, ctx context.Context, expr string, gate replica.ReadOptions) error {
	var val string
	err := s.withRead(gate, func(st *core.Store) error {
		var err error
		val, err = xpath.QueryValueCtx(ctx, st, expr)
		return badExpr(err)
	})
	if err != nil {
		return err
	}
	var e enc
	e.str(val)
	return c.writeFrame(msgValueRes, e.payload())
}

func (s *Server) handleReadNode(c *conn, ctx context.Context, id core.NodeID, gate replica.ReadOptions) error {
	var frame []byte
	err := s.withRead(gate, func(st *core.Store) error {
		var err error
		frame, err = c.nodeFrame(ctx, st, msgValueRes, id)
		return err
	})
	if err != nil {
		return err
	}
	return c.send(frame, true)
}

// runMutation wraps every mutating op with the idempotency-token protocol
// (wire v2) and the leadership-epoch fence (wire v3): each mutation
// payload leads with a token string — empty for "no dedup" — then the
// client's observed epoch (0 = unstamped). The fence runs first, before
// even the idempotency lookup: a fenced node must not replay cached acks,
// or a partitioned client could mistake them for live leadership.
//
// A token that matches a cached committed ack replays that ack verbatim
// without touching the store; a token whose sequence number fell below
// the cache's eviction horizon is refused with ErrIdemAmbiguous — the
// original outcome is unknowable and silently re-executing could
// double-apply. A token whose first attempt is still running waits for it,
// as long as ctx allows, and then asks again. Otherwise the token is
// reserved and the mutation runs; on success its ack is cached before it is
// written, so even an ack lost on the wire is replayable. Failures are never
// cached — a retry after a shed or deadline must re-execute.
func (s *Server) runMutation(c *conn, ctx context.Context, typ byte, d *dec) error {
	tok, err := d.str()
	if err != nil {
		return err
	}
	epoch, err := c.reqEpoch(d)
	if err != nil {
		return err
	}
	if err := s.checkWriteEpoch(epoch); err != nil {
		return err
	}
	var rtyp byte
	var payload []byte
	if tok == "" {
		rtyp, payload, err = s.mutate(c, ctx, typ, d)
	} else {
		key := idemKey{gate: c.gate, token: tok}
		for {
			e, found, evicted, running := s.idem.begin(key)
			if found {
				return c.writeFrame(e.typ, e.payload)
			}
			if evicted {
				return fmt.Errorf("%w: token %q fell out of a %d-entry window", ErrIdemAmbiguous, tok, s.opt.IdemCacheSize)
			}
			if running == nil {
				break
			}
			select {
			case <-running:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		rtyp, payload, err = s.mutateReserved(key, c, ctx, typ, d)
	}
	if err != nil {
		return err
	}
	return c.writeFrame(rtyp, payload)
}

// mutateReserved runs the mutation under key's reservation and ends it,
// caching a copy of the ack when the mutation succeeds, before the ack is
// written — also when it panics, so no retry waits on a reservation nobody
// holds.
func (s *Server) mutateReserved(key idemKey, c *conn, ctx context.Context, typ byte, d *dec) (rtyp byte, payload []byte, err error) {
	var ack *idemEntry
	defer func() { s.idem.end(key, ack) }()
	if rtyp, payload, err = s.mutate(c, ctx, typ, d); err == nil {
		ack = &idemEntry{typ: rtyp, payload: bytes.Clone(payload)} // payload is c's buffer
	}
	return rtyp, payload, err
}

// mutate decodes and runs the mutation typ, returning its ack. The ack's
// payload is the connection's buffer, valid until its next request.
func (s *Server) mutate(c *conn, ctx context.Context, typ byte, d *dec) (byte, []byte, error) {
	switch typ {
	case msgInsert:
		return s.buildInsert(c, ctx, d)
	case msgDelete:
		id, err := d.u64()
		if err != nil {
			return 0, nil, err
		}
		return s.buildDelete(ctx, core.NodeID(id))
	default:
		frag, err := d.view()
		if err != nil {
			return 0, nil, err
		}
		return s.buildLoad(c, ctx, frag)
	}
}

// buildInsert runs one XUpdate primitive and commits it (Flush) before
// acknowledging — the ack means durable. The fragment is parsed where it
// lies in the request frame, into the connection's token slice: what the
// store keeps of it (a name new to its dictionary) it copies.
func (s *Server) buildInsert(c *conn, ctx context.Context, d *dec) (byte, []byte, error) {
	opb, err := d.byt()
	if err != nil {
		return 0, nil, err
	}
	id, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	frag, err := d.view()
	if err != nil {
		return 0, nil, err
	}
	st, err := s.writeStore()
	if err != nil {
		return 0, nil, err
	}
	toks, err := xmltok.AppendFragment(c.toks[:0], frag, xmltok.ParseOptions{})
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c.toks = toks
	target := core.NodeID(id)
	var newID core.NodeID
	switch InsertOp(opb) {
	case InsertLast:
		newID, err = st.InsertIntoLastCtx(ctx, target, toks)
	case InsertFirst:
		newID, err = st.InsertIntoFirstCtx(ctx, target, toks)
	case InsertBefore:
		newID, err = st.InsertBeforeCtx(ctx, target, toks)
	case InsertAfter:
		newID, err = st.InsertAfterCtx(ctx, target, toks)
	case Replace:
		newID, err = st.ReplaceNodeCtx(ctx, target, toks)
	case ReplaceContent:
		newID, err = st.ReplaceContentCtx(ctx, target, toks)
	default:
		return 0, nil, fmt.Errorf("%w: unknown insert op %d", ErrBadRequest, opb)
	}
	if err != nil {
		return 0, nil, err
	}
	if err := st.Flush(); err != nil {
		return 0, nil, err
	}
	c.ack = binary.AppendUvarint(c.ack[:0], uint64(newID))
	return msgNodeID, c.ack, nil
}

func (s *Server) buildDelete(ctx context.Context, id core.NodeID) (byte, []byte, error) {
	st, err := s.writeStore()
	if err != nil {
		return 0, nil, err
	}
	if err := st.DeleteNodeCtx(ctx, id); err != nil {
		return 0, nil, err
	}
	if err := st.Flush(); err != nil {
		return 0, nil, err
	}
	return msgOK, nil, nil
}

func (s *Server) buildLoad(c *conn, ctx context.Context, frag string) (byte, []byte, error) {
	st, err := s.writeStore()
	if err != nil {
		return 0, nil, err
	}
	toks, err := xmltok.AppendFragment(c.toks[:0], frag, xmltok.ParseOptions{})
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c.toks = toks
	id, err := st.AppendCtx(ctx, toks)
	if err != nil {
		return 0, nil, err
	}
	if err := st.Flush(); err != nil {
		return 0, nil, err
	}
	c.ack = binary.AppendUvarint(c.ack[:0], uint64(id))
	return msgNodeID, c.ack, nil
}

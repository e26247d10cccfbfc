// Package server is the network service layer: axmlserved's length-prefixed
// binary wire protocol (plus a thin HTTP/JSON facade in http.go) over one
// store or one read replica. Robustness is the design center, not a layer
// on top:
//
//   - client deadlines travel in every request header and become the
//     context the store's own OpTimeout machinery already honors;
//   - connections are bounded with FIFO-fair accept queuing that sheds
//     with the same typed ErrOverloaded the admission controller uses;
//   - per-frame read/write timeouts and a hard frame-size cap defeat
//     slowloris and oversized-frame abuse;
//   - every typed error in the taxonomy (DESIGN.md §10) crosses the wire
//     as its stable code set (core/errcode.go) and is reconstructed on the
//     client so errors.Is answers exactly as it would in-process;
//   - SIGTERM drains gracefully: stop accepting, finish in-flight ops
//     under a deadline, fsync, close.
//
// Wire format (DESIGN.md §12): one frame is
//
//	| uint32 big-endian length | byte type | payload (length-1 bytes) |
//
// Length counts the type byte, so the minimum frame is 5 bytes on the
// wire. Payload fields are unsigned varints and uvarint-length-prefixed
// strings. Each request carries its deadline (milliseconds, 0 = none) and,
// for reads, a replica gate (MinLSN, MaxStaleness) that primaries ignore.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"unsafe"

	"repro/internal/core"
)

// ProtocolVersion is what this code speaks and sends in hello frames.
// Version 2 added the replication stream (SEGMENTS / FETCH_SEGMENT) and
// the idempotency token every mutation payload now carries. Version 3
// added the failover plane (LEASE / VOTE) and the leadership-epoch stamp
// on every mutation and segment-ship request — the fencing half of
// automatic failover.
//
// The server accepts [MinProtocolVersion, ProtocolVersion] so a fleet
// upgrades rolling, not flag-day: v2 clients and replicas keep working
// against v3 servers, their payloads decoded without the epoch field and
// treated as unstamped (epoch 0) — exactly how a v3 server treats a v3
// client that has not learned an epoch yet. Upgrade servers first, then
// clients; a v3 client against a v2 server is refused by the old server.
const (
	ProtocolVersion    = 3
	MinProtocolVersion = 2
)

// DefaultMaxFrame caps one frame's wire size (length field) unless
// Options/ClientOptions override it.
const DefaultMaxFrame = 1 << 20

// Message types. Client requests are < 0x80, server responses >= 0x80.
const (
	msgHello    byte = 0x01
	msgPing     byte = 0x02
	msgQuery    byte = 0x10
	msgValue    byte = 0x11
	msgReadNode byte = 0x12
	msgStats    byte = 0x13
	msgHealth   byte = 0x14
	msgInsert   byte = 0x20
	msgDelete   byte = 0x21
	msgLoad     byte = 0x22

	// Replication stream: a follower lists archived segments beyond its
	// applied LSN, then fetches them one at a time. A fetch response is
	// chunked (msgSegData frames, then msgDone with the total) so a segment
	// larger than the frame cap still crosses the wire.
	msgSegments     byte = 0x30
	msgFetchSegment byte = 0x31

	// Failover plane (wire v3): the primary's epoch-stamped lease
	// heartbeat and a candidate's vote solicitation. Handled ahead of
	// tenant quotas and the drain cutoff, like ping — an overloaded or
	// draining node must still answer the failure detector, or load alone
	// would read as death and trigger spurious elections.
	msgLease byte = 0x40
	msgVote  byte = 0x41

	msgHelloOK  byte = 0x80
	msgErr      byte = 0x81
	msgPong     byte = 0x82
	msgRow      byte = 0x83
	msgDone     byte = 0x84
	msgValueRes byte = 0x85
	msgJSON     byte = 0x86
	msgNodeID   byte = 0x87
	msgOK       byte = 0x88
	msgSegList  byte = 0x89
	msgSegData  byte = 0x8A
	msgLeaseAck byte = 0x8B
	msgVoteRes  byte = 0x8C
)

// InsertOp selects which XUpdate primitive an insert request runs.
type InsertOp byte

// Insert operations, wire-stable.
const (
	InsertLast InsertOp = iota
	InsertFirst
	InsertBefore
	InsertAfter
	Replace
	ReplaceContent
)

// Typed service-layer errors, registered in the wire-code registry like
// every other layer's sentinels.
var (
	// ErrAuth rejects a handshake with an unknown token, or a request on a
	// connection that never completed its handshake.
	ErrAuth = errors.New("server: authentication failed")
	// ErrFrameTooLarge rejects a frame whose declared length exceeds the
	// negotiated cap. The connection closes: the stream's framing can no
	// longer be trusted (the declared bytes were never read).
	ErrFrameTooLarge = errors.New("server: frame exceeds the maximum size")
	// ErrProtocol rejects a malformed frame or an out-of-order message;
	// the connection closes.
	ErrProtocol = errors.New("server: protocol violation")
	// ErrDraining sheds an operation arriving after drain began. The
	// caller should reconnect elsewhere; in-flight operations finish.
	ErrDraining = errors.New("server: draining, not accepting new operations")
	// ErrQuotaExceeded sheds an operation whose tenant is at its quota
	// with a full wait queue. Like ErrOverloaded, retry after backoff.
	ErrQuotaExceeded = errors.New("server: tenant quota exceeded")
	// ErrBadRequest rejects a request whose payload decoded but made no
	// sense (bad insert op, unparsable fragment target...). The connection
	// stays open.
	ErrBadRequest = errors.New("server: malformed request")
	// ErrIdemAmbiguous refuses an idempotency token that fell out of the
	// dedup window: the original outcome is unknowable, and silently
	// re-executing could double-apply. The caller must reconcile by
	// reading — re-sending the same token cannot resolve the ambiguity.
	ErrIdemAmbiguous = errors.New("server: idempotency token expired from the dedup window; outcome ambiguous")
)

// Quota sheds and drain refusals are retryable — the quota clears as the
// tenant's in-flight ops finish, and a draining server's fleet has a
// healthy peer to reconnect to. Auth, protocol and request-shape failures
// are deterministic: the same bytes fail the same way forever.
func init() {
	core.RegisterErrCode(core.CodeAuth, ErrAuth, false)
	core.RegisterErrCode(core.CodeFrameTooLarge, ErrFrameTooLarge, false)
	core.RegisterErrCode(core.CodeProtocol, ErrProtocol, false)
	core.RegisterErrCode(core.CodeDraining, ErrDraining, true)
	core.RegisterErrCode(core.CodeQuotaExceeded, ErrQuotaExceeded, true)
	core.RegisterErrCode(core.CodeBadRequest, ErrBadRequest, false)
	core.RegisterErrCode(core.CodeIdemAmbiguous, ErrIdemAmbiguous, false)
	// fs.ErrNotExist rides code 66 so a network follower's missing-segment
	// check (errors.Is against fs.ErrNotExist) answers exactly as a local
	// directory read's would. Not retryable by policy: the follower itself
	// decides between "next poll" and "stall" — blind re-runs decide wrong.
	core.RegisterErrCode(core.CodeSegmentGone, fs.ErrNotExist, false)
}

// frameHeader is the bytes in front of a payload: length, then type.
const frameHeader = 5

// appendFrame appends one frame to dst: length, type, payload.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = slices.Grow(dst, frameHeader+len(payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(payload)))
	return append(append(dst, typ), payload...)
}

// writeFrame writes one frame. The caller is responsible for any write
// deadline on w.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(appendFrame(nil, typ, payload))
	return err
}

// readFrameLen reads the 4-byte length header from r's buffer, in place. It
// is split from readFrameBody so the server can run the two phases under
// different deadlines: a long idle timeout waiting for the header, a short
// read timeout for the body — the slowloris defense.
func readFrameLen(r *bufio.Reader) (uint32, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF // a header cut short, as io.ReadFull says
		}
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, err = r.Discard(4)
	return n, err
}

// readFrameBody validates the declared length against the cap *before*
// reading — an attacker-declared length never allocates or waits for bytes
// that will not be honored — then reads type byte and payload into buf's
// array when it has room (a new one otherwise). The payload aliases the
// returned body, which is buf or its replacement.
func readFrameBody(r io.Reader, n uint32, maxFrame int, buf []byte) (typ byte, payload, body []byte, err error) {
	if n == 0 {
		return 0, nil, buf, fmt.Errorf("%w: zero-length frame", ErrProtocol)
	}
	if int64(n) > int64(maxFrame) {
		return 0, nil, buf, fmt.Errorf("%w: declared %d bytes, cap %d", ErrFrameTooLarge, n, maxFrame)
	}
	body = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, body, err
	}
	return body[0], body[1:], body, nil
}

// readFrame reads one complete frame under a single deadline regime, into
// a new buffer.
func readFrame(r io.Reader, maxFrame int) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, payload, _, err := readFrameBody(r, binary.BigEndian.Uint32(hdr[:]), maxFrame, nil)
	return typ, payload, err
}

// enc builds a payload: uvarints and uvarint-length-prefixed strings.
type enc struct{ b []byte }

func (e *enc) u64(v uint64)    { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) byt(v byte)      { e.b = append(e.b, v) }
func (e *enc) str(s string)    { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte)  { e.u64(uint64(len(p))); e.b = append(e.b, p...) }
func (e *enc) payload() []byte { return e.b }

// dec consumes a payload; every method fails cleanly on truncation so a
// hostile payload cannot panic the session.
type dec struct{ b []byte }

func (d *dec) u64() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrProtocol)
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) byt() (byte, error) {
	if len(d.b) == 0 {
		return 0, fmt.Errorf("%w: truncated byte", ErrProtocol)
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) str() (string, error) {
	b, err := d.field()
	return string(b), err
}

// view is str without the copy: the string aliases the payload, so it is
// valid only as long as the payload is — on a served connection, until the
// next request is read into the same buffer. Whatever keeps any part of it
// past that must copy it.
func (d *dec) view() (string, error) {
	b, err := d.field()
	return unsafe.String(unsafe.SliceData(b), len(b)), err
}

// field consumes one length-prefixed field and returns its bytes in place.
func (d *dec) field() ([]byte, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < n {
		return nil, fmt.Errorf("%w: truncated string (declared %d, have %d)", ErrProtocol, n, len(d.b))
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b, nil
}

// encodeErr maps an error chain onto the wire: every registered code the
// chain matches (core.ErrCodesOf), then the message. The full code set —
// not a single primary — is what lets multi-cause errors (a gated replica
// read shed both ErrTooStale and ErrReplicaStalled) round-trip errors.Is.
func encodeErr(err error) []byte {
	codes := core.ErrCodesOf(err)
	var e enc
	e.u64(uint64(len(codes)))
	for _, c := range codes {
		e.u64(uint64(c))
	}
	e.str(err.Error())
	return e.payload()
}

// wireError is the client-side reconstruction of a server error frame: the
// original message plus every sentinel the server's chain matched, exposed
// through Unwrap so errors.Is answers exactly as it would in-process.
type wireError struct {
	codes  []core.ErrCode
	msg    string
	causes []error
}

func (e *wireError) Error() string   { return e.msg }
func (e *wireError) Unwrap() []error { return e.causes }

// Codes returns the stable wire codes the server attached.
func (e *wireError) Codes() []core.ErrCode { return e.codes }

// decodeErr rebuilds a wireError from an error-frame payload.
func decodeErr(payload []byte) error {
	d := dec{payload}
	n, err := d.u64()
	if err != nil {
		return err
	}
	if n > 64 {
		return fmt.Errorf("%w: %d error codes in one frame", ErrProtocol, n)
	}
	we := &wireError{}
	for i := uint64(0); i < n; i++ {
		c, err := d.u64()
		if err != nil {
			return err
		}
		code := core.ErrCode(c)
		we.codes = append(we.codes, code)
		if s, ok := core.SentinelFor(code); ok {
			we.causes = append(we.causes, s)
		}
	}
	msg, err := d.str()
	if err != nil {
		return err
	}
	we.msg = msg
	return we
}

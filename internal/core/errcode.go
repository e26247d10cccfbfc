// Stable wire codes for the typed error taxonomy (DESIGN.md §10/§12).
//
// Every sentinel a caller is expected to errors.Is against gets one integer
// code here, in a single registry, so the network service layer can map an
// error chain onto the wire and a client can reconstruct a chain for which
// errors.Is answers exactly as it would in-process. Codes are append-only
// and never renumbered: they are part of the wire protocol.
//
// The registry lives in core because core sits at the bottom of the import
// graph — everything that owns sentinels (replica, recover, server)
// already imports core and registers its own in an init. core itself
// registers its sentinels plus those of the packages below it (pagestore,
// token, context).
package core

import (
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/token"
)

// ErrCode is a stable integer identifier of one typed error sentinel.
// Zero is reserved for "no error"; CodeUnknown tags errors outside the
// registered taxonomy.
type ErrCode uint32

// The code space, grouped by owning layer. Append-only.
const (
	CodeOK      ErrCode = 0
	CodeUnknown ErrCode = 1

	// core
	CodeNoSuchNode    ErrCode = 10
	CodeNotElement    ErrCode = 11
	CodeBadFragment   ErrCode = 12
	CodeClosed        ErrCode = 13
	CodeReadOnly      ErrCode = 14
	CodeOverloaded    ErrCode = 15
	CodeIntoAttribute ErrCode = 16
	CodeAttrContext   ErrCode = 17

	// time (context machinery: OpTimeout, caller deadlines, cancellation)
	CodeDeadlineExceeded ErrCode = 20
	CodeCanceled         ErrCode = 21

	// storage
	CodeCorruptPage  ErrCode = 30
	CodeStoreLocked  ErrCode = 31
	CodeReadOnlyFile ErrCode = 32
	// CodeUnknownName: stored bytes name a dictionary id the store's name
	// dictionary does not hold — corruption, latched like a checksum failure.
	CodeUnknownName ErrCode = 33

	// 40–44 were the transaction layer's lock and transaction errors, retired
	// with it. The registry is append-only: never reuse them.

	// replication
	CodeReplicaStalled    ErrCode = 50
	CodeTooStale          ErrCode = 51
	CodePromoted          ErrCode = 52
	CodeNotBootstrapped   ErrCode = 53
	CodeNoRollForwardBase ErrCode = 54

	// network service layer
	CodeAuth          ErrCode = 60
	CodeFrameTooLarge ErrCode = 61
	CodeProtocol      ErrCode = 62
	CodeDraining      ErrCode = 63
	CodeQuotaExceeded ErrCode = 64
	CodeBadRequest    ErrCode = 65
	// CodeSegmentGone carries fs.ErrNotExist across the wire: a replication
	// fetch for a segment the source no longer has. The network follower
	// needs errors.Is(err, fs.ErrNotExist) to answer the same as a local
	// directory read would — "gone" vs "failed to read" decides stall vs
	// retry. Registered by the server package, which owns the wire.
	CodeSegmentGone ErrCode = 66
	// CodeIdemAmbiguous: an idempotency token replayed after it fell out of
	// the server's dedup window. The original outcome is unknowable, so the
	// server refuses instead of risking a silent double-apply. Registered by
	// the server package. Not retryable: re-running the same token cannot
	// resolve the ambiguity — the caller must reconcile by reading.
	CodeIdemAmbiguous ErrCode = 67

	// failover
	// CodeFenced: the request (or the node serving it) carries a stale
	// leadership epoch. Registered by the failover package. Not retryable
	// against the same node; fleet clients rediscover the current primary.
	CodeFenced ErrCode = 70
)

// errEntry is one registered sentinel plus its machine-readable
// retryability classification.
type errEntry struct {
	sentinel  error
	retryable bool
}

var errReg = struct {
	sync.RWMutex
	byCode map[ErrCode]errEntry
	codes  []ErrCode // sorted, for deterministic enumeration
}{byCode: make(map[ErrCode]errEntry)}

// RegisterErrCode binds a sentinel error to its stable wire code and
// classifies its retryability. Each package registers its own sentinels in
// an init; registering the same code twice panics — a collision is a
// numbering bug, not a runtime condition.
//
// retryable means: the condition is transient and the *whole operation* is
// safe and sensible to re-run after a jittered backoff — an admission shed,
// a tenant quota shed, a drain in progress. It does NOT
// mean "might eventually work" (a corrupt page might be repaired someday;
// retrying does not repair it). The flag is the single source of truth the
// resilient client and the replication transports both classify
// from — no layer keeps its own list of retryable sentinels.
func RegisterErrCode(code ErrCode, sentinel error, retryable bool) {
	if code == CodeOK || code == CodeUnknown || sentinel == nil {
		panic("core: RegisterErrCode: reserved code or nil sentinel")
	}
	errReg.Lock()
	defer errReg.Unlock()
	if _, dup := errReg.byCode[code]; dup {
		panic("core: RegisterErrCode: duplicate code")
	}
	errReg.byCode[code] = errEntry{sentinel: sentinel, retryable: retryable}
	errReg.codes = append(errReg.codes, code)
	sort.Slice(errReg.codes, func(i, j int) bool { return errReg.codes[i] < errReg.codes[j] })
}

// ErrCodesOf maps an error chain onto the wire: every registered sentinel
// the chain errors.Is-matches, as a sorted code list. An error matching
// nothing maps to [CodeUnknown]; nil maps to nil. Returning the full match
// set (not just a primary) is what lets multi-cause errors — a gated read
// shed both ErrTooStale and ErrReplicaStalled — survive the round trip.
func ErrCodesOf(err error) []ErrCode {
	if err == nil {
		return nil
	}
	errReg.RLock()
	defer errReg.RUnlock()
	var out []ErrCode
	for _, c := range errReg.codes {
		if errors.Is(err, errReg.byCode[c].sentinel) {
			out = append(out, c)
		}
	}
	if out == nil {
		out = []ErrCode{CodeUnknown}
	}
	return out
}

// Retryable reports whether err's chain matches any sentinel registered as
// retryable — the registry-driven answer to "should this operation be
// re-run after backoff?". An error outside the taxonomy answers false;
// transport-level conditions (connection resets, Temporary() device
// hiccups) never reach the registry and are classified by retryx.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	errReg.RLock()
	defer errReg.RUnlock()
	for _, c := range errReg.codes {
		e := errReg.byCode[c]
		if e.retryable && errors.Is(err, e.sentinel) {
			return true
		}
	}
	return false
}

// CodeRetryable reports the registered retryability of one wire code — how
// a client classifies an error that crossed the wire by code alone.
func CodeRetryable(code ErrCode) bool {
	errReg.RLock()
	defer errReg.RUnlock()
	return errReg.byCode[code].retryable
}

// RetryableCodes enumerates the codes registered retryable, ascending.
func RetryableCodes() []ErrCode {
	errReg.RLock()
	defer errReg.RUnlock()
	var out []ErrCode
	for _, c := range errReg.codes {
		if errReg.byCode[c].retryable {
			out = append(out, c)
		}
	}
	return out
}

// ErrCodeOf returns the first (lowest-numbered) matching code — the
// primary classification for metrics and logs.
func ErrCodeOf(err error) ErrCode {
	codes := ErrCodesOf(err)
	if len(codes) == 0 {
		return CodeOK
	}
	return codes[0]
}

// RegisteredErrCodes enumerates every registered code in ascending order —
// the wire-mapping tests sweep this to prove each sentinel round-trips.
func RegisteredErrCodes() []ErrCode {
	errReg.RLock()
	defer errReg.RUnlock()
	out := make([]ErrCode, len(errReg.codes))
	copy(out, errReg.codes)
	return out
}

// SentinelFor resolves a wire code back to its registered sentinel.
func SentinelFor(code ErrCode) (error, bool) {
	errReg.RLock()
	defer errReg.RUnlock()
	e, ok := errReg.byCode[code]
	return e.sentinel, ok
}

func init() {
	// Only ErrOverloaded is retryable here: an admission shed clears as
	// in-flight work drains. Everything else is either permanent (corrupt
	// page, missing node), a caller mistake (bad fragment), or the caller's
	// own deadline — retrying cannot help.
	RegisterErrCode(CodeNoSuchNode, ErrNoSuchNode, false)
	RegisterErrCode(CodeNotElement, ErrNotElement, false)
	RegisterErrCode(CodeBadFragment, ErrBadFragment, false)
	RegisterErrCode(CodeClosed, ErrClosed, false)
	RegisterErrCode(CodeReadOnly, ErrReadOnly, false)
	RegisterErrCode(CodeOverloaded, ErrOverloaded, true)
	RegisterErrCode(CodeIntoAttribute, ErrIntoAttribute, false)
	RegisterErrCode(CodeAttrContext, ErrAttrContext, false)

	RegisterErrCode(CodeDeadlineExceeded, context.DeadlineExceeded, false)
	RegisterErrCode(CodeCanceled, context.Canceled, false)

	RegisterErrCode(CodeCorruptPage, pagestore.ErrCorruptPage, false)
	RegisterErrCode(CodeStoreLocked, pagestore.ErrStoreLocked, false)
	RegisterErrCode(CodeReadOnlyFile, pagestore.ErrReadOnlyFile, false)
	RegisterErrCode(CodeUnknownName, token.ErrUnknownName, false)

	// recover sits below core in the import graph (core/repair.go uses it),
	// so core registers its sentinel too.
	RegisterErrCode(CodeNoRollForwardBase, recov.ErrNoRollForwardBase, false)
}

// Wire-format invariants: frame caps enforced before allocation, hostile
// payloads fail typed instead of panicking, and every registered sentinel
// survives the error mapping with errors.Is intact.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := writeFrame(&buf, msgQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgQuery || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type 0x%02x payload %q", typ, got)
	}
}

func TestFrameCapEnforcedBeforeRead(t *testing.T) {
	// An oversized declared length must be refused from the header alone —
	// the reader would block forever (or allocate wildly) otherwise.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	_, _, err := readFrame(&buf, 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}

	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	_, _, err = readFrame(&buf, 1024)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("zero-length frame: got %v, want ErrProtocol", err)
	}
}

func TestDecTruncationIsTyped(t *testing.T) {
	// Every decoder failure on a hostile payload must be ErrProtocol, never
	// a panic or a silent wrong value.
	d := &dec{b: []byte{0x85}} // truncated uvarint continuation
	if _, err := d.u64(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated uvarint: %v", err)
	}
	d = &dec{b: []byte{0x05, 'a', 'b'}} // string declares 5, has 2
	if _, err := d.str(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated string: %v", err)
	}
	d = &dec{}
	if _, err := d.byt(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty byte: %v", err)
	}
}

// TestErrRoundTripAllRegistered sweeps the whole registry: every sentinel
// any layer has registered must cross the wire and still answer errors.Is.
// This is the contract the client library sells; a sentinel that stops
// round-tripping is a wire-compatibility break.
func TestErrRoundTripAllRegistered(t *testing.T) {
	codes := core.RegisteredErrCodes()
	if len(codes) < 25 {
		t.Fatalf("only %d registered codes — registration inits missing?", len(codes))
	}
	for _, code := range codes {
		sentinel, ok := core.SentinelFor(code)
		if !ok {
			t.Fatalf("code %d registered but unresolvable", code)
		}
		wrapped := fmt.Errorf("op failed: %w", sentinel)
		got := decodeErr(encodeErr(wrapped))
		if !errors.Is(got, sentinel) {
			t.Errorf("code %d (%v): errors.Is lost across the wire: %v", code, sentinel, got)
		}
		if got.Error() != wrapped.Error() {
			t.Errorf("code %d: message %q, want %q", code, got.Error(), wrapped.Error())
		}
	}
}

// TestErrRoundTripMultiCause pins the case the registry exists for: a
// gated replica read that is simultaneously too stale and stalled must
// carry both sentinels to the client — a single "primary code" would
// break one of the two errors.Is checks callers already rely on.
func TestErrRoundTripMultiCause(t *testing.T) {
	src := errors.Join(replica.ErrTooStale, replica.ErrReplicaStalled)
	got := decodeErr(encodeErr(src))
	if !errors.Is(got, replica.ErrTooStale) || !errors.Is(got, replica.ErrReplicaStalled) {
		t.Fatalf("multi-cause lost: %v", got)
	}
	var we *wireError
	if !errors.As(got, &we) {
		t.Fatalf("decoded error is %T", got)
	}
	if len(we.Codes()) != 2 {
		t.Fatalf("codes = %v, want exactly the two causes", we.Codes())
	}
}

// TestErrRoundTripUnknown: an unregistered error maps to CodeUnknown and
// still carries its message.
func TestErrRoundTripUnknown(t *testing.T) {
	got := decodeErr(encodeErr(errors.New("novel failure")))
	var we *wireError
	if !errors.As(got, &we) {
		t.Fatalf("decoded error is %T", got)
	}
	if len(we.Codes()) != 1 || we.Codes()[0] != core.CodeUnknown {
		t.Fatalf("codes = %v, want [CodeUnknown]", we.Codes())
	}
	if got.Error() != "novel failure" {
		t.Fatalf("message = %q", got.Error())
	}
}

func TestHostileErrFrame(t *testing.T) {
	// A forged error frame claiming 2^32 codes must be refused, not looped.
	var e enc
	e.u64(1 << 32)
	if err := decodeErr(e.payload()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("hostile code count: %v", err)
	}
}

// TestRetryabilityRegistryCoverage pins the retryability classification of
// every registered code, exhaustively. Adding a new sentinel without
// deciding its retryability here fails the test — the registry is the one
// list the resilient client and the replication transports both
// classify from, so "forgot to decide" must be a compile-adjacent failure,
// not a silent non-retryable default in production.
func TestRetryabilityRegistryCoverage(t *testing.T) {
	want := map[core.ErrCode]bool{
		core.CodeNoSuchNode:    false,
		core.CodeNotElement:    false,
		core.CodeBadFragment:   false,
		core.CodeClosed:        false,
		core.CodeReadOnly:      false,
		core.CodeOverloaded:    true,
		core.CodeIntoAttribute: false,
		core.CodeAttrContext:   false,

		core.CodeDeadlineExceeded: false,
		core.CodeCanceled:         false,

		core.CodeCorruptPage:  false,
		core.CodeStoreLocked:  false,
		core.CodeReadOnlyFile: false,
		core.CodeUnknownName:  false,

		core.CodeReplicaStalled:    false,
		core.CodeTooStale:          false,
		core.CodePromoted:          false,
		core.CodeNotBootstrapped:   false,
		core.CodeNoRollForwardBase: false,

		core.CodeAuth:          false,
		core.CodeFrameTooLarge: false,
		core.CodeProtocol:      false,
		core.CodeDraining:      true,
		core.CodeQuotaExceeded: true,
		core.CodeBadRequest:    false,
		core.CodeSegmentGone:   false,

		// Ambiguous idempotency outcomes need reconciliation, not a blind
		// retry; a fenced epoch never heals on the same node.
		core.CodeIdemAmbiguous: false,
		core.CodeFenced:        false,
	}
	codes := core.RegisteredErrCodes()
	if len(codes) != len(want) {
		t.Fatalf("%d registered codes, %d classified here — classify the new code in this test's want map", len(codes), len(want))
	}
	for _, code := range codes {
		wantRetry, ok := want[code]
		if !ok {
			t.Errorf("code %d registered but not classified in this test", code)
			continue
		}
		if got := core.CodeRetryable(code); got != wantRetry {
			t.Errorf("code %d: CodeRetryable = %v, want %v", code, got, wantRetry)
		}
		// The error-level classifier must agree with the code-level one for a
		// chain wrapping exactly this sentinel.
		sentinel, _ := core.SentinelFor(code)
		if got := core.Retryable(fmt.Errorf("op: %w", sentinel)); got != wantRetry {
			t.Errorf("code %d: Retryable(wrapped sentinel) = %v, want %v", code, got, wantRetry)
		}
	}
	// A multi-cause chain is retryable if any cause is: the wire error for a
	// quota shed wrapped in a drain notice must still earn a retry.
	if !core.Retryable(errors.Join(ErrDraining, core.ErrClosed)) {
		t.Error("multi-cause chain with a retryable member must be retryable")
	}
	if core.Retryable(errors.New("novel failure")) {
		t.Error("unregistered error must not be retryable")
	}
	if core.Retryable(nil) {
		t.Error("nil must not be retryable")
	}
}

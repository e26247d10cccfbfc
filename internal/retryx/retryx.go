// Package retryx is the one retry loop the whole system shares: capped,
// jittered exponential backoff, always bounded by the caller's context.
//
// Before this package, hand-rolled copies of the same loop lived in
// replica.DirTransport (Temporary() fetch errors) and the follower's
// fetch-validate path — each with its own jitter, its own cap, and its own
// idea of when a context deadline cuts the loop. The resilient network
// client would have been another.
// One policy, one loop, one guarantee: no retry path in the system can
// outlive the context that asked for the work.
//
// What counts as retryable is the caller's business — the typed-error
// registry (core.Retryable) classifies the taxonomy's sentinels, and the
// helpers below classify what never reaches the registry (Temporary()
// device hiccups, connection resets).
package retryx

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"
)

// Policy shapes one retry loop. The zero value gives the defaults.
type Policy struct {
	// MaxAttempts bounds total attempts, the first included. 0 means the
	// default (5); 1 disables retrying; negative means retry until the
	// context expires — only safe with a context that has a deadline, so
	// Do refuses the combination of unlimited attempts and no deadline.
	MaxAttempts int
	// Initial is the first backoff (default 2ms), multiplied per attempt.
	Initial time.Duration
	// Max caps the backoff (default 250ms).
	Max time.Duration
}

const (
	defaultAttempts = 5
	defaultInitial  = 2 * time.Millisecond
	defaultMax      = 250 * time.Millisecond
)

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = defaultAttempts
	}
	if p.Initial <= 0 {
		p.Initial = defaultInitial
	}
	if p.Max <= 0 {
		p.Max = defaultMax
	}
	if p.Initial > p.Max {
		p.Initial = p.Max
	}
	return p
}

// ErrUnbounded refuses a retry loop that nothing bounds: unlimited
// attempts with a context that has no deadline would be the exact
// unbounded loop this package exists to forbid.
var ErrUnbounded = errors.New("retryx: unlimited attempts require a context deadline")

// Do runs op until it succeeds, fails non-retryably, exhausts the attempt
// budget, or the context ends. retryable decides which errors earn another
// attempt (nil means all of them). Backoff between attempts is jittered in
// [b/2, b) — decorrelating competing retriers so the losers of one
// collision do not collide again in lockstep — doubled per attempt up to
// the cap, and every sleep is interruptible: when the context ends
// mid-wait the loop returns immediately.
//
// The returned error is the last attempt's error; when the context cut the
// loop it is joined with the context's error so callers can errors.Is
// against either the cause or the cutoff.
func Do(ctx context.Context, p Policy, retryable func(error) bool, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	if p.MaxAttempts < 0 {
		if _, ok := ctx.Deadline(); !ok {
			return ErrUnbounded
		}
	}
	backoff := p.Initial
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return err
		}
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		case <-time.After(d):
		}
		if backoff < p.Max {
			backoff *= 2
			if backoff > p.Max {
				backoff = p.Max
			}
		}
	}
}

// Temporary reports whether err speaks the Temporary() idiom and answers
// true — the shape the fault injector and real devices give transient I/O
// trouble. Deliberately narrow: an error that does not implement the
// interface is not temporary.
func Temporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// ConnError reports whether err looks like the connection itself failing —
// a reset, a closed socket, an EOF mid-conversation, a refused or timed-out
// connect — as opposed to a typed refusal the far side sent on a healthy
// connection. These never reach the error-code registry (they are the
// absence of a response, not a response), so the resilient client
// classifies them here.
func ConnError(err error) bool {
	if err == nil {
		return false
	}
	// A context expiry is the caller giving up, never the connection — even
	// though context.DeadlineExceeded happens to satisfy net.Error.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNABORTED) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Admission control: a semaphore with a bounded wait queue in front of every
// public store operation, and the two prologues (readOp, writeOp) through
// which every gated operation enters the store. Under overload the store
// degrades predictably — excess work waits briefly, then is shed with a
// typed ErrOverloaded — instead of piling goroutines onto s.mu until latency
// and memory collapse.
// The paper's theme of bounded lazy structures (a partial index that refuses
// to grow past its budget) applied to concurrency itself.
package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// AdmissionStats counts admission-control outcomes.
type AdmissionStats struct {
	Admitted uint64 // operations that acquired a slot
	Queued   uint64 // admitted operations that had to wait for a slot
	Shed     uint64 // operations rejected with ErrOverloaded (queue full)
	Expired  uint64 // operations whose context ended while queued
	InFlight int    // slots held right now
	Waiting  int    // operations queued right now
}

// admission is the gate itself. A nil *admission means admission control is
// off (MaxConcurrentOps < 0) and every method is a no-op.
//
// The slot semaphore is a buffered channel: goroutines blocked sending into
// it are released in FIFO order by the runtime, giving fair queuing without
// an explicit ticket list. The queue bound is enforced by a counter — an
// arrival that would make the queue exceed maxQueue is shed immediately.
type admission struct {
	sem      chan struct{}
	maxQueue int64

	waiting  atomic.Int64
	admitted atomic.Uint64
	queued   atomic.Uint64
	shed     atomic.Uint64
	expired  atomic.Uint64
}

// newAdmission builds a gate of `slots` concurrent operations and a wait
// queue of `queue`. Non-positive slots disable the gate.
func newAdmission(slots, queue int) *admission {
	if slots <= 0 {
		return nil
	}
	if queue < 0 {
		queue = 0
	}
	return &admission{sem: make(chan struct{}, slots), maxQueue: int64(queue)}
}

// acquire takes a slot, waiting in the bounded queue if none is free.
// It returns ErrOverloaded when the queue is full, or ctx.Err() when the
// context ends first.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		a.shed.Add(1)
		return ErrOverloaded
	}
	a.queued.Add(1)
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		a.expired.Add(1)
		return ctx.Err()
	}
}

// release returns a slot.
func (a *admission) release() {
	if a != nil {
		<-a.sem
	}
}

// snapshot returns the current counters (zero value when the gate is off).
func (a *admission) snapshot() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Admitted: a.admitted.Load(),
		Queued:   a.queued.Load(),
		Shed:     a.shed.Load(),
		Expired:  a.expired.Load(),
		InFlight: len(a.sem),
		Waiting:  int(a.waiting.Load()),
	}
}

// readOp is how every gated read enters the store: admission and OpTimeout
// (beginOp), the shared lock, the corruption latch, the closed check, then fn
// with a pooled cursor that reads under the operation's context. A checksum
// failure fn returns degrades the store to read-only.
//
// Only outermost entry points call readOp or writeOp. Internal code paths —
// and composite public helpers that chain other public calls — must not, or
// a held slot would wait on a second slot and the gate could self-deadlock.
func (s *Store) readOp(ctx context.Context, fn func(cur *rangeCursor) error) (err error) {
	cur := s.cursor(nil)
	defer cur.close()
	ctx, end, err := s.beginOp(ctx, &cur.dl)
	if err != nil {
		return err
	}
	defer end.finish()
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.latchCorrupt(&err)
	if s.closed {
		return ErrClosed
	}
	cur.ctx = ctx
	return fn(cur)
}

// writeOp is readOp for mutators: the exclusive lock, and writableLocked in
// place of the closed check, so a closed, read-only or degraded store
// rejects the write and an admitted one starts a new generation.
func (s *Store) writeOp(ctx context.Context, fn func(cur *rangeCursor) error) (err error) {
	cur := s.cursor(nil)
	defer cur.close()
	ctx, end, err := s.beginOp(ctx, &cur.dl)
	if err != nil {
		return err
	}
	defer end.finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.scratch.trim()
	defer s.latchCorrupt(&err)
	if err := s.writableLocked(); err != nil {
		return err
	}
	cur.ctx = ctx
	return fn(cur)
}

// beginOp applies the configured OpTimeout (only when the caller brought no
// deadline of its own), in dl — the operation's cursor's, so it costs no
// allocation — then passes admission control. On success the returned
// context carries the deadline and end.finish must be deferred; on failure
// the typed error is returned as the operation's result. readOp and writeOp
// are its only callers.
func (s *Store) beginOp(ctx context.Context, dl *deadlineCtx) (opCtx context.Context, end opEnd, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var d *deadlineCtx
	if s.cfg.OpTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			*dl = deadlineCtx{Context: ctx, deadline: time.Now().Add(s.cfg.OpTimeout)}
			d = dl
			ctx = d
		}
	}
	if err := s.adm.acquire(ctx); err != nil {
		d.end(context.Canceled)
		return ctx, opEnd{}, err
	}
	return ctx, opEnd{adm: s.adm, ctx: d}, nil
}

// opEnd ends an admitted operation: it returns the admission slot and ends
// the OpTimeout context, either of which may be absent. A value, so the
// deferred call allocates nothing.
type opEnd struct {
	adm *admission
	ctx *deadlineCtx
}

func (e opEnd) finish() {
	e.adm.release()
	e.ctx.end(context.Canceled)
}

// deadlineCtx is a context with a deadline that arms no timer until someone
// waits on it. An uncontended operation only ever polls Err (a cursor does at
// every page fetch), which reads the clock; the timer that closes Done, and
// the hook that forwards the parent's cancellation to it, are set up by the
// first Done call — a queued admission, a lock wait — so an operation that
// never waits pays one allocation and no timer.
type deadlineCtx struct {
	context.Context // the parent
	deadline        time.Time
	ended           atomic.Bool // err is set: done, if made, is closed
	mu              sync.Mutex
	err             error
	done            chan struct{}
	timer           *time.Timer
	unhook          func() bool // stops forwarding the parent's cancellation
}

// armed reports whether Done set up a timer and a parent hook. Their
// callbacks may still be about to run after end, so such a context is never
// reused.
func (c *deadlineCtx) armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done != nil
}

func newDeadlineCtx(parent context.Context, timeout time.Duration) *deadlineCtx {
	return &deadlineCtx{Context: parent, deadline: time.Now().Add(timeout)}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Err() error {
	if c.ended.Load() {
		return c.end(nil)
	}
	if err := c.Context.Err(); err != nil {
		return c.end(err)
	}
	if !time.Now().Before(c.deadline) {
		return c.end(context.DeadlineExceeded)
	}
	return nil
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.end(context.DeadlineExceeded) })
			c.unhook = context.AfterFunc(c.Context, func() { c.end(c.Context.Err()) })
		}
	}
	return c.done
}

// end makes err the context's error if it has none yet (nil: only reads it),
// closing done and disarming what Done armed, and returns the error. Safe
// on a nil context, where it does nothing.
func (c *deadlineCtx) end(err error) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && err != nil {
		c.err = err
		c.ended.Store(true)
		if c.done != nil {
			close(c.done)
			c.timer.Stop()
			c.unhook()
		}
	}
	return c.err
}

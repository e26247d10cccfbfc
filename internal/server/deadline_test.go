package server

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLazyDeadlineNeverEarly: whatever the order of requests, the deadline
// next leaves armed falls between the wanted instant and an eighth of the
// timeout after it — late by at most that, never early — and it moves only
// when it must.
func TestLazyDeadlineNeverEarly(t *testing.T) {
	var d lazyDeadline
	t0 := time.Unix(1000, 0)
	const idle, read = 8 * time.Second, time.Second
	moves := 0
	for i, step := range []struct {
		after   time.Duration
		timeout time.Duration
	}{{0, idle}, {10 * time.Millisecond, idle}, {500 * time.Millisecond, idle}, {999 * time.Millisecond, idle},
		{1001 * time.Millisecond, idle}, {1002 * time.Millisecond, read}, {1003 * time.Millisecond, read},
		{1004 * time.Millisecond, idle}, {3 * time.Second, read}, {3 * time.Second, idle}} {
		now := t0.Add(step.after)
		at, moved := d.next(now, step.timeout)
		if moved {
			moves++
		}
		want := now.Add(step.timeout)
		if at.Before(want) || at.After(want.Add(step.timeout/8)) {
			t.Fatalf("step %d: deadline %v for one wanted at %v with timeout %v", i, at.Sub(t0), want.Sub(t0), step.timeout)
		}
	}
	if moves != 6 {
		t.Errorf("%d moves, want 6: the first arm, idle falling an eighth behind once, and four switches between idle and read", moves)
	}
}

// TestClientArmsDeadlinesLazily: the client side of TestLazyDeadlinesOnPings
// — a thousand pings on a session arm a handful of socket deadlines, with
// and without a context deadline.
func TestClientArmsDeadlinesLazily(t *testing.T) {
	st, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), ctx} {
		before := c.armed
		for i := 0; i < 1000; i++ {
			if err := c.Ping(ctx); err != nil {
				t.Fatal(err)
			}
		}
		armed := c.armed - before
		t.Logf("1000 pings armed %d client deadlines", armed)
		if armed > 16 {
			t.Errorf("1000 pings armed %d client deadlines, want <= 16", armed)
		}
	}
}

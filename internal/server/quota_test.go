// White-box tests for the per-tenant admission gate: queue-slot hygiene
// when a queued caller's context dies, idempotent release, FIFO grant order
// with shedding at a full queue, and a free pass for sessions without a
// quota.
package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// gateWaitFor polls until cond holds or the test deadline budget runs out.
func gateWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTenantGateCtxCancelWhileQueued(t *testing.T) {
	g := newTenantGate(Tenant{Name: "t", MaxConcurrentOps: 1, MaxQueuedOps: 2})

	hold, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		rel, err := g.acquire(ctx)
		if rel != nil {
			rel()
		}
		errCh <- err
	}()
	gateWaitFor(t, "waiter to queue", func() bool { return g.waiting.Load() == 1 })

	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire after cancel: got %v, want context.Canceled", err)
	}

	// The abandoned waiter must give back both its queue slot and its
	// waiting count; the gate keeps granting as if it never queued.
	gateWaitFor(t, "queue slot to drain", func() bool {
		return g.waiting.Load() == 0 && len(g.queue) == 0
	})
	hold()
	rel, err := g.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after canceled waiter: %v", err)
	}
	rel()
	if n := len(g.sem); n != 0 {
		t.Fatalf("%d slots held after all releases, want 0", n)
	}
}

func TestTenantGateDoubleReleaseSafe(t *testing.T) {
	g := newTenantGate(Tenant{Name: "t", MaxConcurrentOps: 1})

	rel, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // must be a no-op, not a second semaphore drain

	// Capacity is still exactly one: a holder plus a short-deadline second
	// acquire proves no extra slot was minted by the double release.
	hold, err := g.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after double release: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second concurrent acquire: got %v, want DeadlineExceeded (cap must stay 1)", err)
	}
	hold()
	if n := len(g.sem); n != 0 {
		t.Fatalf("%d slots held, want 0", n)
	}

	// An unlimited gate's release, and a nil gate's, must be safe to call
	// twice too.
	for _, u := range []*tenantGate{newTenantGate(Tenant{Name: "u"}), nil} {
		urel, err := u.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		urel()
		urel()
	}
}

// TestUnlimitedGateAllocatesNothing: sessions without a quota — a nil gate,
// or a tenant with MaxConcurrentOps 0 — pay no allocation per operation.
func TestUnlimitedGateAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	for _, g := range []*tenantGate{nil, newTenantGate(Tenant{Name: "u"})} {
		if n := testing.AllocsPerRun(100, func() {
			rel, err := g.acquire(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rel()
		}); n != 0 {
			t.Errorf("gate %v: acquire+release allocates %.1f times, want 0", g, n)
		}
	}
}

func TestTenantGateFIFOFairnessAtFullQueue(t *testing.T) {
	const waiters = 3
	g := newTenantGate(Tenant{Name: "t", MaxConcurrentOps: 1, MaxQueuedOps: waiters})

	hold, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Enqueue waiters strictly one at a time so arrival order is known.
	grants := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		before := g.waiting.Load()
		go func() {
			rel, err := g.acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			grants <- i
			rel()
		}()
		gateWaitFor(t, "waiter to queue", func() bool { return g.waiting.Load() == before+1 })
	}

	// Queue is now full: the next arrival sheds instead of waiting.
	if _, err := g.acquire(context.Background()); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("acquire at full queue: got %v, want ErrQuotaExceeded", err)
	}
	if n := g.shed.Load(); n != 1 {
		t.Fatalf("shed = %d, want 1", n)
	}

	// Releasing the held slot drains the queue in arrival order: blocked
	// channel sends are granted FIFO by the runtime, and each waiter
	// releases immediately, handing the slot to the next in line.
	hold()
	for want := 0; want < waiters; want++ {
		select {
		case got := <-grants:
			if got != want {
				t.Fatalf("grant order: got waiter %d in position %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for grant %d", want)
		}
	}
	gateWaitFor(t, "gate to go idle", func() bool {
		return len(g.sem) == 0 && g.waiting.Load() == 0 && len(g.queue) == 0
	})
}

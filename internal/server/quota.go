package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Tenant configures one tenant's admission quota. The gate sits *in front
// of* the store's own admission controller: a tenant at its quota sheds
// with ErrQuotaExceeded before it can queue on (and crowd) the shared
// store-wide semaphore, so one tenant's burst cannot starve another's
// steady traffic.
type Tenant struct {
	// Name labels the tenant in stats and logs.
	Name string
	// MaxConcurrentOps bounds the tenant's operations executing at once.
	// 0 means unlimited (the shared admission controller still applies).
	MaxConcurrentOps int
	// MaxQueuedOps bounds how many of the tenant's operations may wait for
	// a slot before new ones shed. 0 defaults to 4x MaxConcurrentOps.
	MaxQueuedOps int
}

// tenantGate is the runtime form: a semaphore plus a bounded FIFO wait
// queue, the same shape as core's admission controller. Sessions without a
// tenant — unauthenticated ones and those holding the fleet credential — have
// a nil gate.
type tenantGate struct {
	name    string
	sem     chan struct{} // nil: unlimited
	queue   chan struct{}
	waiting atomic.Int64
	shed    atomic.Int64
}

func newTenantGate(cfg Tenant) *tenantGate {
	g := &tenantGate{name: cfg.Name}
	if cfg.MaxConcurrentOps > 0 {
		g.sem = make(chan struct{}, cfg.MaxConcurrentOps)
		qn := cfg.MaxQueuedOps
		if qn <= 0 {
			qn = 4 * cfg.MaxConcurrentOps
		}
		g.queue = make(chan struct{}, qn)
	}
	return g
}

// acquire claims a slot, waiting in FIFO order while the queue has room.
// A full queue sheds immediately with ErrQuotaExceeded; a caller whose
// deadline expires while queued leaves with the context error. The
// returned release is idempotent: op teardown paths can overlap (a drain
// racing normal completion), and a double release must not mint an extra
// slot another tenant op would then squeeze through. A nil or unlimited
// gate admits at once and hands back a release with nothing to do.
func (g *tenantGate) acquire(ctx context.Context) (release func(), err error) {
	if g == nil || g.sem == nil {
		return noRelease, nil
	}
	grant := func() func() {
		var once sync.Once
		return func() { once.Do(func() { <-g.sem }) }
	}
	select {
	case g.sem <- struct{}{}:
		return grant(), nil
	default:
	}
	select {
	case g.queue <- struct{}{}:
	default:
		g.shed.Add(1)
		return nil, fmt.Errorf("%w: tenant %q at %d concurrent ops with a full wait queue",
			ErrQuotaExceeded, g.name, cap(g.sem))
	}
	g.waiting.Add(1)
	defer func() {
		g.waiting.Add(-1)
		<-g.queue
	}()
	select {
	case g.sem <- struct{}{}:
		return grant(), nil
	case <-ctx.Done():
		return nil, fmt.Errorf("tenant %q queued past deadline: %w", g.name, ctx.Err())
	}
}

func noRelease() {}

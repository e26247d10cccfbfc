// Idempotency-token dedup: re-sending a token replays the committed ack
// instead of applying twice — across retries, across reconnects, scoped
// per tenant — and failed attempts leave no record.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func TestIdemTokenDedupesMutation(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()

	root, err := c.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	// The "retry": same token, same mutation. Must replay, not re-apply.
	id2, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("replayed ack returned node %d, original %d", id2, id1)
	}
	rows, err := c.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d elements inserted for one token, want 1", len(rows))
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.IdemReplays != 1 {
		t.Fatalf("IdemReplays = %d, want 1", st.Server.IdemReplays)
	}
}

// TestIdemRetryWaitsForRunningAttempt: a retry that arrives on another
// connection while the token's first attempt is still executing must not
// run the mutation beside it. It waits for that attempt and replays its ack:
// one element, one node id, both calls acknowledged.
func TestIdemRetryWaitsForRunningAttempt(t *testing.T) {
	e := start(t, slowCfg(), server.Options{})
	ctx := context.Background()
	c1, c2 := e.dial(server.ClientOptions{}), e.dial(server.ClientOptions{})
	root, err := c1.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	e.inj.ArmLatency(2 * time.Millisecond) // every page and log I/O: the first attempt outlasts the gap
	defer e.inj.DisarmLatency()

	type result struct {
		id  core.NodeID
		err error
	}
	results := make(chan result, 2)
	for i, c := range []*server.Client{c1, c2} {
		if i > 0 {
			time.Sleep(3 * time.Millisecond)
		}
		go func() {
			id, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "race-tok")
			results <- result{id, err}
		}()
	}
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("acks: %v, %v", a.err, b.err)
	}
	if a.id != b.id {
		t.Errorf("the two attempts acknowledged nodes %d and %d, want one node", a.id, b.id)
	}
	e.inj.DisarmLatency()
	rows, err := c1.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d elements for one token sent twice, want 1", len(rows))
	}
}

// TestIdemTokenSurvivesReconnect: the ambiguous-outcome scenario. The ack
// may be lost with the connection, so the dedup record must live on the
// server, keyed by tenant — a fresh session replaying the token gets the
// original ack.
func TestIdemTokenSurvivesReconnect(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	ctx := context.Background()

	c1 := e.dial(server.ClientOptions{})
	root, err := c1.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := c1.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "ambiguous-tok")
	if err != nil {
		t.Fatal(err)
	}
	c1.Close() // the client never saw the ack, reconnects, retries

	c2 := e.dial(server.ClientOptions{})
	id2, err := c2.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "ambiguous-tok")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("retry on a fresh session got node %d, original %d", id2, id1)
	}
	rows, err := c2.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d elements after cross-session retry, want 1", len(rows))
	}
}

// TestIdemTokenScopedPerTenant: two tenants using the same token string
// must not see each other's acks.
func TestIdemTokenScopedPerTenant(t *testing.T) {
	e := start(t, memCfg(), server.Options{
		Tenants: map[string]server.Tenant{
			"tok-a": {Name: "a"},
			"tok-b": {Name: "b"},
		},
	})
	ctx := context.Background()
	ca := e.dial(server.ClientOptions{Token: "tok-a"})
	cb := e.dial(server.ClientOptions{Token: "tok-b"})

	root, err := ca.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.InsertIdem(ctx, server.InsertLast, root, `<a/>`, "shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.InsertIdem(ctx, server.InsertLast, root, `<b/>`, "shared"); err != nil {
		t.Fatal(err)
	}
	rows, err := ca.Query(ctx, `/log/*`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d elements, want 2 — tenants must not share dedup records", len(rows))
	}
}

// TestIdemFailureNotCached: a failed attempt must leave no dedup record;
// the retry re-executes and can succeed.
func TestIdemFailureNotCached(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()

	// First attempt fails: no such target node.
	_, err := c.InsertIdem(ctx, server.InsertLast, core.NodeID(999999), `<e/>`, "tok-f")
	if !errors.Is(err, core.ErrNoSuchNode) {
		t.Fatalf("expected ErrNoSuchNode, got %v", err)
	}
	root, err := c.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	// Retry with the same token against a now-valid target must execute.
	if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "tok-f"); err != nil {
		t.Fatalf("retry after cached-failure: %v", err)
	}
	rows, err := c.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d elements, want 1", len(rows))
	}
}

// TestIdemCacheBounded: the FIFO cap holds — old tokens fall out, new ones
// keep landing, memory stays bounded — and a sequenced token replayed
// *after* eviction is refused with the typed ambiguous-outcome error, not
// silently re-executed. Silent re-execution was the old eviction-boundary
// bug: the client's retry contract says "same token → at most one apply",
// and the server breaking it exactly when the cache is busiest was the
// worst possible failure mode.
func TestIdemCacheBounded(t *testing.T) {
	e := start(t, memCfg(), server.Options{IdemCacheSize: 8})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	root, err := c.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		tok := fmt.Sprintf("tok-%d", i)
		if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, tok); err != nil {
			t.Fatal(err)
		}
	}
	// tok-0 has been evicted. The replay must come back as the typed
	// ambiguous-outcome refusal — never a second apply.
	_, err = c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "tok-0")
	if !errors.Is(err, server.ErrIdemAmbiguous) {
		t.Fatalf("evicted-token replay: got %v, want ErrIdemAmbiguous", err)
	}
	if core.Retryable(err) {
		t.Fatal("ErrIdemAmbiguous must not classify retryable: blind re-sends cannot resolve ambiguity")
	}
	rows, err := c.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 32 {
		t.Fatalf("%d elements, want 32 — the ambiguous replay must not re-execute", len(rows))
	}
	// The freshest tokens are still cached: replay, not re-execution and
	// not a refusal.
	if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "tok-31"); err != nil {
		t.Fatal(err)
	}
	// A brand-new token beyond the horizon executes normally.
	if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "tok-100"); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 33 {
		t.Fatalf("%d elements, want 33 (32 + one new token; cached replay adds none)", len(rows))
	}
}

// TestIdemUnsequencedTokenKeepsLegacySemantics: tokens outside the
// "<prefix>-<seq>" minting scheme cannot be tracked by the eviction
// horizon; for them the cache keeps its historical best-effort behavior
// (an evicted token re-executes) rather than refusing everything.
func TestIdemUnsequencedTokenKeepsLegacySemantics(t *testing.T) {
	e := start(t, memCfg(), server.Options{IdemCacheSize: 4})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	root, err := c.Load(ctx, `<log/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "opaque"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tok := fmt.Sprintf("fill-%d", i)
		if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, tok); err != nil {
			t.Fatal(err)
		}
	}
	// "opaque" has been evicted but carries no sequence: best-effort
	// re-execution, as before wire v3.
	if _, err := c.InsertIdem(ctx, server.InsertLast, root, `<e/>`, "opaque"); err != nil {
		t.Fatalf("unsequenced evicted token: %v, want re-execution", err)
	}
	rows, err := c.Query(ctx, `/log/e`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d elements, want 10", len(rows))
	}
}

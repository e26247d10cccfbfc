// Service-layer behavior end to end over real TCP: sessions and auth,
// CRUD and streamed queries, deadline propagation into the store, tenant
// quotas, FIFO-fair connection admission, replica fronting with staleness
// gates, the HTTP facade, and graceful drain.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

type syncedMemPager struct{ *pagestore.MemPager }

func (syncedMemPager) Sync() error { return nil }

// env is one running server plus its backend.
type env struct {
	t    *testing.T
	srv  *server.Server
	st   *core.Store
	inj  *fault.Injector
	addr string
	done chan error
}

// start brings up a server over an in-memory store with fault injection
// underneath, serves on a loopback port, and tears everything down with
// the test.
func start(t *testing.T, cfg core.Config, opt server.Options) *env {
	t.Helper()
	inj := fault.NewInjector(fault.Config{})
	if cfg.Pager == nil {
		cfg.Pager = fault.NewPager(inj, syncedMemPager{pagestore.NewMemPager(cfg.PageSize)})
	}
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Store == nil && opt.Follower == nil {
		opt.Store = st
	}
	srv, err := server.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{t: t, srv: srv, st: st, inj: inj, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		st.Close()
	})
	return e
}

func (e *env) dial(opt server.ClientOptions) *server.Client {
	e.t.Helper()
	c, err := server.Dial(e.addr, opt)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { c.Close() })
	return c
}

func memCfg() core.Config {
	return core.Config{Mode: core.RangePartial, PageSize: 512, OpTimeout: 5 * time.Second}
}

// slowCfg thrashes the buffer pool so injected per-page latency actually
// accumulates — ops stay observably in flight.
func slowCfg() core.Config {
	cfg := memCfg()
	cfg.PoolPages = 8
	return cfg
}

func TestEndToEndCRUD(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	root, err := c.Load(ctx, `<inv><item sku="a"><qty>2</qty></item><item sku="b"><qty>7</qty></item></inv>`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, `//item[@sku="b"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0].XML, `sku="b"`) {
		t.Fatalf("query rows: %+v", rows)
	}
	v, err := c.Value(ctx, `count(//item)`)
	if err != nil {
		t.Fatal(err)
	}
	if v != "2" {
		t.Fatalf("count = %q", v)
	}
	id, err := c.Insert(ctx, server.InsertLast, root, `<item sku="c"/>`)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := c.ReadNode(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, `sku="c"`) {
		t.Fatalf("read back: %q", xml)
	}
	if err := c.Delete(ctx, rows[0].ID); err != nil {
		t.Fatal(err)
	}
	if v, _ = c.Value(ctx, `count(//item)`); v != "2" {
		t.Fatalf("after delete: count = %q", v)
	}
	// The ack promised durability/visibility: the store agrees directly.
	if got, _ := axml.QueryValue(e.st, `count(//item)`); got != "2" {
		t.Fatalf("store disagrees: %q", got)
	}
	if err := e.st.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAuthTokens(t *testing.T) {
	e := start(t, memCfg(), server.Options{
		Tenants: map[string]server.Tenant{"tok-a": {Name: "a"}},
	})
	if _, err := server.Dial(e.addr, server.ClientOptions{Token: "wrong"}); !errors.Is(err, server.ErrAuth) {
		t.Fatalf("bad token: %v, want ErrAuth", err)
	}
	c := e.dial(server.ClientOptions{Token: "tok-a"})
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.SessionID() == 0 {
		t.Fatal("no session id assigned")
	}
}

// TestDeadlinePropagation: the client's context deadline must travel the
// wire and cut the operation inside the store — the response is a typed
// deadline error, not a hung connection.
func TestDeadlinePropagation(t *testing.T) {
	e := start(t, slowCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	if _, err := c.Load(context.Background(), bigDoc(200)); err != nil {
		t.Fatal(err)
	}
	e.inj.ArmLatency(3 * time.Millisecond)
	defer e.inj.DisarmLatency()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Query(ctx, `//row`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline did not propagate: %v", err)
	}
	// The session died with the cut; a fresh one serves immediately once
	// the slowness clears.
	e.inj.DisarmLatency()
	c2 := e.dial(server.ClientOptions{})
	if _, err := c2.Query(context.Background(), `//row[1]`); err != nil {
		t.Fatal(err)
	}
}

// TestTenantQuotaSheds: one tenant at its concurrency quota with a full
// wait queue sheds with ErrQuotaExceeded while another tenant's traffic
// is untouched — the point of per-tenant gates in front of the shared
// admission controller.
func TestTenantQuotaSheds(t *testing.T) {
	e := start(t, slowCfg(), server.Options{
		Tenants: map[string]server.Tenant{
			"tok-a": {Name: "a", MaxConcurrentOps: 1, MaxQueuedOps: 1},
			"tok-b": {Name: "b"},
		},
	})
	if _, err := e.dial(server.ClientOptions{Token: "tok-b"}).Load(context.Background(), bigDoc(300)); err != nil {
		t.Fatal(err)
	}
	e.inj.ArmLatency(2 * time.Millisecond)
	defer e.inj.DisarmLatency()

	const n = 6
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := e.dial(server.ClientOptions{Token: "tok-a"})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Value(context.Background(), `count(//row)`)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var shed int
	for err := range errs {
		if errors.Is(err, server.ErrQuotaExceeded) {
			shed++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no request shed with ErrQuotaExceeded (quota 1, queue 1, 6 concurrent)")
	}
	// Tenant b sails through while a is saturated.
	if _, err := e.dial(server.ClientOptions{Token: "tok-b"}).Value(context.Background(), `count(//row)`); err != nil {
		t.Fatalf("tenant b collateral damage: %v", err)
	}
}

// TestConnAdmissionFIFO: connections beyond MaxConns wait FIFO; beyond
// the accept queue they shed with the same typed ErrOverloaded the core
// admission controller uses.
func TestConnAdmissionFIFO(t *testing.T) {
	e := start(t, memCfg(), server.Options{MaxConns: 1, MaxAcceptQueue: 1})
	c1 := e.dial(server.ClientOptions{})
	if err := c1.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	// c2 queues: its Dial blocks in the handshake until a slot frees.
	type dialRes struct {
		c   *server.Client
		err error
	}
	c2ch := make(chan dialRes, 1)
	go func() {
		c, err := server.Dial(e.addr, server.ClientOptions{DialTimeout: 10 * time.Second})
		c2ch <- dialRes{c, err}
	}()
	waitFor(t, func() bool { return e.srv.Stats().ConnsQueued == 1 })
	// c3 finds the queue full and is shed immediately.
	if _, err := server.Dial(e.addr, server.ClientOptions{}); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("third conn: %v, want ErrOverloaded", err)
	}
	// Releasing c1 admits the queued c2 — FIFO, nobody starves.
	c1.Close()
	select {
	case r := <-c2ch:
		if r.err != nil {
			t.Fatalf("queued dial failed: %v", r.err)
		}
		if err := r.c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		r.c.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("queued connection never admitted")
	}
}

// TestGracefulDrain: Shutdown finishes the in-flight operation, refuses
// new work with ErrDraining, fsyncs, and Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	e := start(t, slowCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	if _, err := c.Load(context.Background(), bigDoc(300)); err != nil {
		t.Fatal(err)
	}
	e.inj.ArmLatency(time.Millisecond)
	defer e.inj.DisarmLatency()

	// The load's op is counted and answered, but its in-flight mark comes
	// down after the answer: wait for the query's own admission, not for
	// any op in flight.
	ops := e.srv.Stats().OpsTotal
	opDone := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), `//row`)
		opDone <- err
	}()
	waitFor(t, func() bool { st := e.srv.Stats(); return st.OpsTotal > ops && st.OpsInFlight > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight query finished cleanly despite the drain.
	if err := <-opDone; err != nil {
		t.Fatalf("in-flight op during drain: %v", err)
	}
	// New connections are refused with the typed drain error.
	if _, err := server.Dial(e.addr, server.ClientOptions{}); err == nil || !errors.Is(err, server.ErrDraining) {
		// The listener may already be gone entirely; a refused TCP connect
		// is also a valid post-drain answer.
		var ne net.Error
		if err == nil || !(errors.As(err, &ne) || strings.Contains(err.Error(), "refused")) {
			t.Fatalf("post-drain dial: %v", err)
		}
	}
	if err := <-e.done; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	if err := e.st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryRowsBuffered: a query's rows are buffered on the connection and
// flushed with msgDone (one write for a one-row answer), or whenever the
// buffer fills — a one-row and a 10 000-row answer both arrive complete — and
// every one of those writes is still under the write timeout: a reader that
// stops reading is cut, it does not pin the session.
func TestQueryRowsBuffered(t *testing.T) {
	cfg := memCfg()
	cfg.PageSize = 8192 // 10 000 rows on 512-byte pages load for seconds
	e := start(t, cfg, server.Options{WriteTimeout: 200 * time.Millisecond})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	const n = 10_000
	if _, err := c.Load(ctx, bigDoc(n)); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, `//row[@n='7']`)
	if err != nil || len(rows) != 1 || rows[0].XML != `<row n="7">v7</row>` {
		t.Fatalf("one row: %+v (%v)", rows, err)
	}
	// Past the last response's deadline: the writes the full buffer makes
	// on the way must each set their own.
	time.Sleep(250 * time.Millisecond)
	if rows, err = c.Query(ctx, `//row`); err != nil || len(rows) != n {
		t.Fatalf("%d rows (%v), want %d", len(rows), err, n)
	}
	for i, r := range rows {
		if want := fmt.Sprintf(`<row n="%d">v%d</row>`, i, i); r.XML != want {
			t.Fatalf("row %d: %s, want %s", i, r.XML, want)
		}
	}
	if rows, err = c.Query(ctx, `//nothing`); err != nil || len(rows) != 0 {
		t.Fatalf("no rows: %+v (%v)", rows, err)
	}

	// 128 nested elements of 1 KB each: //* answers ≈8 MB, more than the
	// socket buffers between a server and a client that does not read.
	deep := strings.Repeat("<n>"+strings.Repeat("x", 1024), 128) + strings.Repeat("</n>", 128)
	if _, err := c.Load(ctx, deep); err != nil {
		t.Fatal(err)
	}
	const rawQuery, rawDone = 0x10, 0x84
	nc := rawHandshake(t, e.addr)
	defer nc.Close()
	if _, err := nc.Write(rawFrame(rawQuery, rawStr(rawHeader(), `//n`))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * 200 * time.Millisecond) // the server fills the buffers, waits out its write timeout, cuts
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, _, err := readRawFrame(nc)
		if err != nil {
			break // cut before the answer was complete
		}
		if typ == rawDone {
			t.Fatal("a reader that had stopped reading was served to the end")
		}
	}
	// The session is gone, the server is not.
	if rows, err = c.Query(ctx, `//row[@n='8']`); err != nil || len(rows) != 1 {
		t.Fatalf("after the cut: %+v (%v)", rows, err)
	}
}

// TestReplicaServing: a server fronting a follower serves gated reads,
// sheds writes with ErrReadOnly, and maps gate failures (ErrTooStale) to
// the client intact.
func TestReplicaServing(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "primary.db")
	arch := filepath.Join(dir, "segments")
	wp, err := wal.OpenWithOptions(db, 512, wal.Options{ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.Config{Mode: core.RangeOnly, PageSize: 512, Pager: wp}
	pst, err := core.Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	if _, err := axml.LoadXMLString(pst, `<log><e n="0"/></log>`); err != nil {
		t.Fatal(err)
	}
	if err := pst.Flush(); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base.bak")
	if _, err := pst.BackupTo(base); err != nil {
		t.Fatal(err)
	}

	f, err := replica.Open(filepath.Join(dir, "follower.db"), replica.NewDirTransport(arch, replica.DirTransportOptions{}),
		replica.Options{Store: core.Config{Mode: core.RangeOnly, PageSize: 512}, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Options{Follower: f})
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

	c, err := server.Dial(ln.Addr().String(), server.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.IsReplica() {
		t.Fatal("session does not report replica role")
	}
	ctx := context.Background()
	if v, err := c.Value(ctx, `count(//e)`); err != nil || v != "1" {
		t.Fatalf("replica read: %q, %v", v, err)
	}
	// Writes shed with the typed read-only refusal.
	if _, err := c.Load(ctx, `<e/>`); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica write: %v, want ErrReadOnly", err)
	}
	// A gate the follower cannot meet sheds with ErrTooStale over the wire.
	applied := f.Stats().AppliedLSN
	cg, err := server.Dial(ln.Addr().String(), server.ClientOptions{Gate: replica.ReadOptions{MinLSN: applied + 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer cg.Close()
	if _, err := cg.Value(ctx, `count(//e)`); !errors.Is(err, replica.ErrTooStale) {
		t.Fatalf("gated read: %v, want ErrTooStale", err)
	}
	// Health over the wire reflects the replica role.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "replica" || h.Replica == nil {
		t.Fatalf("health: %+v", h)
	}
}

// TestErrorRoundTripEndToEnd drives representative typed failures through
// a live server: what errors.Is says in-process it must say on the client.
func TestErrorRoundTripEndToEnd(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	if _, err := c.Load(ctx, `<doc><a/></doc>`); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, core.NodeID(999999)); !errors.Is(err, core.ErrNoSuchNode) {
		t.Fatalf("missing node: %v, want ErrNoSuchNode", err)
	}
	if _, err := c.Query(ctx, `//[broken`); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("bad xpath: %v, want ErrBadRequest", err)
	}
	if _, err := c.Value(ctx, `count(//a[`); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("bad xpath value: %v, want ErrBadRequest", err)
	}
	if _, err := c.Load(ctx, `<unclosed>`); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("bad fragment: %v, want ErrBadRequest", err)
	}
}

func TestHTTPFacade(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	if _, err := c.Load(context.Background(), `<doc><a/><a/></doc>`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.srv.HTTPHandler())
	defer ts.Close()

	if code, body := httpGet(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := httpGet(t, ts.URL+"/readyz"); code != 200 || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("readyz: %d %q", code, body)
	}
	if code, body := httpGet(t, ts.URL+"/stats"); code != 200 || !strings.Contains(body, `"role":"primary"`) ||
		!strings.Contains(body, `"WALCommits"`) || !strings.Contains(body, `"WALLogSyncs"`) || !strings.Contains(body, `"WALLogBytes"`) || !strings.Contains(body, `"WALLoggedBytes"`) ||
		!strings.Contains(body, `"ValueIndexHits"`) || !strings.Contains(body, `"ValueIndexBytes"`) || !strings.Contains(body, `"NameIDs"`) || !strings.Contains(body, `"RangeIndexBytes"`) {
		t.Fatalf("stats: %d %q", code, body)
	}
	if code, body := httpGet(t, ts.URL+"/query?expr="+`%2F%2Fa`); code != 200 || strings.Count(body, `"id"`) != 2 {
		t.Fatalf("query: %d %q", code, body)
	}
	if code, body := httpGet(t, ts.URL+"/value?expr=count(%2F%2Fa)"); code != 200 || !strings.Contains(body, `"2"`) {
		t.Fatalf("value: %d %q", code, body)
	}
	if code, body := httpGet(t, ts.URL+"/value?expr=count(%2F%2Fa%5B"); code != 400 || !strings.Contains(body, "codes") {
		t.Fatalf("bad value expr: %d %s", code, body)
	}
	if code, body := httpGet(t, ts.URL+"/query?expr=%2F%2F%5Bbroken"); code != 400 || !strings.Contains(body, "codes") {
		t.Fatalf("bad query: %d %q", code, body)
	}

	// Drain flips readiness to 503 while liveness stays 200: the probe
	// pair tells the orchestrator "alive, stop routing".
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := httpGet(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz after drain: %d", code)
	}
	if code, body := httpGet(t, ts.URL+"/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("readyz after drain: %d %q", code, body)
	}
}

// bigDoc builds a flat document large enough that scans take real time
// under injected latency.
func bigDoc(rows int) string {
	var sb strings.Builder
	sb.WriteString("<t>")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, `<row n="%d">v%d</row>`, i, i)
	}
	sb.WriteString("</t>")
	return sb.String()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never met")
}

// TestNodeFramesOfEveryKind: ReadNode answers and query rows are rendered by
// the store straight into the response frame, behind a prefix laid in once
// the length is known. Every node of a document with attribute nodes, a
// comment, a processing instruction, text that needs escaping, an empty
// element and one node big enough for a three-byte length must cross the wire
// exactly as the store renders it in process — ids included, in both shapes
// of frame, and after the big node grew the connection's buffer.
func TestNodeFramesOfEveryKind(t *testing.T) {
	cfg := memCfg()
	cfg.PageSize = 8192
	e := start(t, cfg, server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	doc := `<r a="1 &amp; &quot;2&quot;" b=""><!-- c --><?p d?><e/>t &lt; u<big>` + strings.Repeat("0123456789", 3000) + `</big><k x="y">z</k></r>`
	if _, err := c.Load(ctx, doc); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//*`, `//@*`, `//k`, `/r/big`} {
		rows, err := c.Query(ctx, q)
		if err != nil || len(rows) == 0 {
			t.Fatalf("%s: %d rows, %v", q, len(rows), err)
		}
		for _, r := range rows {
			want, err := e.st.NodeXMLString(r.ID)
			if err != nil || r.XML != want {
				t.Fatalf("%s: row of node %d is %.60q, the store renders %.60q (%v)", q, r.ID, r.XML, want, err)
			}
		}
	}
	items, err := e.st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.ID == core.InvalidNode {
			continue
		}
		want, err := e.st.NodeXMLString(it.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.ReadNode(ctx, it.ID); err != nil || got != want {
			t.Fatalf("ReadNode(%d) = %.60q, the store renders %.60q (%v)", it.ID, got, want, err)
		}
	}
	if _, err := c.ReadNode(ctx, 1<<40); err == nil {
		t.Fatal("ReadNode of a node that does not exist answered")
	}
	if got, err := c.ReadNode(ctx, items[0].ID); err != nil || len(got) < 30000 {
		t.Fatalf("after an error frame: %d bytes, %v", len(got), err)
	}
}

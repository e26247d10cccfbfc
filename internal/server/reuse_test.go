// Buffer reuse on a served connection: a request frame, the fragment parsed
// in place out of it, and the ack are the connection's buffers from request
// to request, so what the store or the idempotency cache keeps must be
// copied out of them. These tests overwrite those buffers with the next
// request and check that nothing kept changed, and pin what an insert round
// trip still allocates.
package server_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	axml "repro"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/xmltok"
)

// fileEnv serves a journaled store file; close shuts the server down and
// closes the store, so the file can be reopened.
func fileEnv(t *testing.T) (*env, *axml.Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.db")
	st, err := axml.OpenFileWAL(path, axml.Config{Mode: axml.RangePartial}, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return start(t, memCfg(), server.Options{Store: st}), st, path
}

func shutdown(t *testing.T, e *env, st *axml.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewNamesSurviveBufferReuse: each insert introduces an element and an
// attribute name the dictionary learns, and the second request lays its own
// new names over the first one's bytes in the connection's buffer. The
// dictionary must have copied the first names: the live store, and the store
// reopened from its file, find both fragments by their names.
func TestNewNamesSurviveBufferReuse(t *testing.T) {
	e, st, path := fileEnv(t)
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	root, err := c.Load(ctx, "<r/>")
	if err != nil {
		t.Fatal(err)
	}
	frags := []string{`<alpha-one kay-one="v1">x</alpha-one>`, `<omega-two kay-two="v2">y</omega-two>`}
	for _, f := range frags {
		if _, err := c.Insert(ctx, server.InsertLast, root, f); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, value func(expr string) (string, error)) {
		t.Helper()
		for expr, want := range map[string]string{
			"string(/r/alpha-one/@kay-one)": "v1", "string(/r/omega-two/@kay-two)": "v2",
			"string(/r/alpha-one)": "x", "count(/r/*)": "2",
		} {
			if got, err := value(expr); err != nil || got != want {
				t.Errorf("%s: %s = %q, %v; want %q", stage, expr, got, err, want)
			}
		}
	}
	check("served", func(expr string) (string, error) { return c.Value(ctx, expr) })
	shutdown(t, e, st)
	re, err := axml.ReopenFileWAL(path, axml.Config{Mode: axml.RangePartial}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("reopened", func(expr string) (string, error) { return axml.QueryValue(re, expr) })
}

// TestIdemReplayAfterBufferReuse: an idempotent insert's ack is cached, then
// another insert writes its own ack into the connection's buffer; a retry of
// the first token must still replay the first ack, and apply nothing.
func TestIdemReplayAfterBufferReuse(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	root, err := c.Load(ctx, "<r/>")
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.InsertIdem(ctx, server.InsertLast, root, "<a/>", "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Insert(ctx, server.InsertLast, root, "<b/>")
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.InsertIdem(ctx, server.InsertLast, root, "<a/>", "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	if again != first || again == other {
		t.Fatalf("retry acked node %d, want the first ack %d (the insert between acked %d)", again, first, other)
	}
	if n, err := c.Value(ctx, "count(/r/a)"); err != nil || n != "1" {
		t.Fatalf("count(/r/a) = %q, %v; the retry must not apply again", n, err)
	}
}

// TestInsertRoundTripAllocates pins what the server allocates for one
// single-order append over the wire, on a journaled file store: the request
// is read into the connection's buffer, parsed in place into its token
// slice, and acked from its buffers, so besides what the store keeps (about
// 0.5 KB in process, TestInsertAllocatesWhatItKeeps) little is left. The
// client side is raw frames made ahead and a fixed reply buffer, so the
// count is the server's.
func TestInsertRoundTripAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own, and sync.Pool drops items under it")
	}
	e, _, _ := fileEnv(t)
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	root, err := c.Load(ctx, "<purchase-orders/>")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(4001)
	order := func(i int) string {
		xml, err := xmltok.ToString(gen.PurchaseOrder(i))
		if err != nil {
			t.Fatal(err)
		}
		return xml
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Insert(ctx, server.InsertLast, root, order(i)); err != nil {
			t.Fatal(err)
		}
	}
	const n = 500
	frames := make([][]byte, n)
	for i := range frames {
		p := rawInsertPayload(byte(server.InsertLast), uint64(root), order(1000+i))
		frames[i] = rawFrame(0x20, p)
	}
	nc := rawHandshake(t, e.addr)
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(time.Minute))
	var reply [64]byte
	roundTrip := func(f []byte) {
		if _, err := nc.Write(f); err != nil {
			t.Fatal(err)
		}
		if _, err := ioReadFull(nc, reply[:4]); err != nil {
			t.Fatal(err)
		}
		m := binary.BigEndian.Uint32(reply[:4])
		if m > uint32(len(reply)) {
			t.Fatalf("reply of %d bytes", m)
		}
		if _, err := ioReadFull(nc, reply[:m]); err != nil {
			t.Fatal(err)
		}
		if reply[0] != 0x87 {
			t.Fatalf("reply type 0x%02x, want a node id", reply[0])
		}
	}
	for _, f := range frames[:100] { // the connection's buffers grow here
		roundTrip(f)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, f := range frames[100:] {
		roundTrip(f)
	}
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / (n - 100)
	t.Logf("%d B and %.1f allocations per insert round trip", perOp, float64(m1.Mallocs-m0.Mallocs)/(n-100))
	if perOp > 1<<10 {
		t.Errorf("%d bytes allocated per insert round trip, want <= 1024", perOp)
	}
}

// rawInsertPayload is a v3 insert request: the common header, no
// idempotency token, epoch 0, then op, target and fragment.
func rawInsertPayload(op byte, target uint64, frag string) []byte {
	p := rawStr(rawHeader(), "")
	p = binary.AppendUvarint(p, 0)
	p = append(p, op)
	p = binary.AppendUvarint(p, target)
	return rawStr(p, frag)
}

// TestLazyDeadlinesOnPings: a thousand pings on one session arm a handful
// of socket deadlines, not three per request: the idle deadline is re-armed
// only once it falls an eighth of its timeout behind, the body deadline not
// at all for a frame already buffered, and the write deadline like the idle
// one.
func TestLazyDeadlinesOnPings(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	before := e.srv.Stats().DeadlinesArmed
	for i := 0; i < 1000; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	armed := e.srv.Stats().DeadlinesArmed - before
	t.Logf("1000 pings armed %d socket deadlines", armed)
	if armed > 16 {
		t.Errorf("1000 pings armed %d socket deadlines, want <= 16", armed)
	}
}

// TestStressInsertAndReadOverConnections runs writers and readers on their
// own connections at once: each writer inserts orders whose element names
// are its own and new to the store, each reader reads back nodes the writers
// were acked for. Every read must return exactly the XML inserted — what a
// reused request buffer would corrupt first is a name or a value the store
// kept without copying. Run under -race by scripts/check.sh.
func TestStressInsertAndReadOverConnections(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	ctx := context.Background()
	root, err := e.dial(server.ClientOptions{}).Load(ctx, "<r/>")
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, perWriter = 2, 2, 150
	type acked struct {
		id  axml.NodeID
		xml string
	}
	ch := make(chan acked, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		c := e.dial(server.ClientOptions{})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-n%d", w, i%37)
				xml := fmt.Sprintf(`<%s at-%d="%d-%d">%s</%s>`, name, i%5, w, i, strings.Repeat("t", 1+i%9), name)
				id, err := c.Insert(ctx, server.InsertLast, root, xml)
				if err != nil {
					t.Error(err)
					return
				}
				ch <- acked{id, xml}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		c := e.dial(server.ClientOptions{})
		rg.Add(1)
		go func() {
			defer rg.Done()
			var seen []acked
			for {
				select {
				case a := <-ch:
					seen = append(seen, a)
				case <-done:
					select {
					case a := <-ch:
						seen = append(seen, a)
						continue
					default:
					}
					for _, a := range seen { // once more, after every write
						if got, err := c.ReadNode(ctx, a.id); err != nil || got != a.xml {
							t.Errorf("node %d after the writes: %q, %v; want %q", a.id, got, err, a.xml)
						}
					}
					return
				}
				a := seen[len(seen)-1]
				if got, err := c.ReadNode(ctx, a.id); err != nil || got != a.xml {
					t.Errorf("node %d: %q, %v; want %q", a.id, got, err, a.xml)
					return
				}
			}
		}()
	}
	rg.Wait()
	<-done // a reader that failed early leaves the writers running
}

// TestStatsReportRuntime: /stats carries the collector's counters, and two
// reports with a collection and some allocation between them read later
// values: more cycles, more bytes allocated, a live heap.
func TestStatsReportRuntime(t *testing.T) {
	e := start(t, memCfg(), server.Options{})
	c := e.dial(server.ClientOptions{})
	ctx := context.Background()
	a, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 4096))
	}
	runtime.GC()
	b, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(keep)
	ra, rb := a.Runtime, b.Runtime
	if ra.GCCycles == 0 && rb.GCCycles == 0 || ra.AllocBytes == 0 || rb.LiveHeapBytes == 0 {
		t.Fatalf("runtime counters missing: %+v then %+v", ra, rb)
	}
	if rb.GCCycles <= ra.GCCycles || rb.AllocBytes < ra.AllocBytes+64*4096 {
		t.Errorf("runtime counters did not advance over a collection and 256 KB allocated: %+v then %+v", ra, rb)
	}
}

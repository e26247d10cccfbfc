package main

// The end-to-end path: load a generated corpus into a running axmlserved
// over loopback, drive one of four workloads through the public client,
// and check every answer against the generator. This file and the ones it
// uses import only package repro and the standard library.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	axml "repro"
)

// opClass is one kind of operation with its own latency distribution.
type opClass int

const (
	clsRead       opClass = iota // ReadNode of an order root, no write in flight beside it
	clsReadBeside                // ReadNode that overlapped one of serve-mixed's writes
	clsInsertLast                // append one order to the root (the paper's pattern)
	clsInsertMid                 // InsertAfter a base order: a middle insert, range split
	clsQPoint                    // pushdown point query, one row
	clsQCount                    // pushdown count over the whole store
	clsQFallback                 // child-literal predicate: per-query BuildDoc tree
	clsWrite                     // serve-mixed's open-loop insert, timed from its due time
	nClasses
)

// workloadSpec fixes one workload: corpus size, connections, warm-up
// length and which classes make up the primary latency distribution.
type workloadSpec struct {
	name    string
	orders  int // base corpus, loaded in chunks of chunkOrders
	warmup  int // operations per connection before timing starts
	primary []opClass
	conns   []connSpec
}

// connSpec is a group of identical connections, each with a session of its
// own. Closed-loop connections run until the phase's deadline or count; an
// open-loop connection runs beside them until the last of them has finished.
type connSpec struct {
	n        int
	body     func(e *env, l *loop)
	openLoop bool
}

// single is the workload with one connection per group: what the traced
// run drives, so that its counters do not depend on how connections
// interleave.
func (w *workloadSpec) single() *workloadSpec {
	c := *w
	c.conns = append([]connSpec(nil), w.conns...)
	for i := range c.conns {
		c.conns[i].n = 1
	}
	return &c
}

// loops lists one body per connection.
func (w *workloadSpec) loops() []connSpec {
	var out []connSpec
	for _, c := range w.conns {
		for i := 0; i < c.n; i++ {
			out = append(out, connSpec{1, c.body, c.openLoop})
		}
	}
	return out
}

const (
	chunkOrders   = 200 // orders per InsertLast at load: coarse ranges of ≈9 k tokens
	writeInterval = 5 * time.Millisecond
	zipfS         = 1.2
)

// The four workloads. Corpus sizes and mixes are the issue's. Every
// workload runs one closed-loop connection per processor of the host the
// benchmark was sized on (2): enough that a processor rarely sits halted
// waiting for the hypervisor to wake it, which is what a single
// request-reply session measures, and few enough that server time, not
// queueing behind other connections, is most of an operation's latency. The
// query corpus is 1 000 orders, so that the timed phase yields more than
// 3 000 primary samples.
var workloads = []*workloadSpec{
	{
		// Uniform ReadNode over 20 000 orders (4.6 MB of XML: larger than the
		// 2 MiB pool, five times the partial index). Frame handling, runtime
		// wake-ups and serialisation are most of each op; WAL and xpath idle.
		name: "read-cold", orders: 20000, warmup: 5000,
		primary: []opClass{clsRead},
		conns:   []connSpec{{n: 2, body: (*env).readUniform}},
	},
	{
		// Two writers, single-order inserts, 3 of 4 appended to the root and
		// 1 of 4 after a random base order (a middle insert: range split).
		// Parse, split and three fsyncs per op; two writers are the fewest
		// a group commit could batch. Reads and xpath idle.
		name: "ingest", orders: 5000, warmup: 1000,
		primary: []opClass{clsInsertLast, clsInsertMid},
		conns:   []connSpec{{n: 2, body: (*env).ingest}},
	},
	{
		// 70 % pushdown point query, 20 % pushdown count, 10 % child-literal
		// predicate that builds a tree per query, on a store that fits the
		// pool. Millisecond executor work dwarfs the wire tax; p50 lies in
		// the point queries and p99 in the fallback.
		name: "query", orders: 1000, warmup: 300,
		primary: []opClass{clsQPoint, clsQCount, clsQFallback},
		conns:   []connSpec{{n: 2, body: (*env).queryMix}},
	},
	{
		// Closed-loop Zipf(1.2) reads (hot set fits pool and partial index)
		// beside an open-loop 200/s writer that splits and invalidates the
		// hot ranges and holds the store lock across fsync. Reads that
		// overlap a write are a class of their own: p50 lies among the free
		// reads, p99 among the ones beside a write. The fixed write rate
		// keeps the interference constant when either side gets faster.
		name: "serve-mixed", orders: 20000, warmup: 5000,
		primary: []opClass{clsRead, clsReadBeside},
		conns:   []connSpec{{n: 2, body: (*env).readZipf}, {n: 1, body: (*env).writeOpenLoop, openLoop: true}},
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// recorder is what one connection's loop measured. Latencies go into
// slices sized before the phase starts.
type recorder struct {
	lat        [nClasses][]int64 // ns
	lag        []int64           // open-loop writer: how late each request was sent, ns
	attempted  int
	failed     int
	mismatched int
	acked      int   // acknowledged inserts
	ackedBytes int64 // their XML bytes
	firstErr   error
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.lag = append(r.lag, o.lag...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatched += o.mismatched
	r.acked += o.acked
	r.ackedBytes += o.ackedBytes
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *recorder) latencies(classes ...opClass) []int64 {
	var all []int64
	for _, c := range classes {
		all = append(all, r.lat[c]...)
	}
	return all
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) mismatch(what string) {
	r.mismatched++
	if r.firstErr == nil {
		r.firstErr = errors.New("wrong answer: " + what)
	}
}

// loop is one connection's view of one phase: its session, its random
// source, where it records, and when it stops — a closed loop after maxOps
// operations when maxOps > 0 (warm-up, traced slices), else at the
// deadline; an open loop when the closed loops beside it have stopped.
type loop struct {
	cl     *axml.Client
	conn   int
	rng    *rand.Rand
	rec    *recorder
	tr     *tracer
	start  time.Time
	until  time.Time
	maxOps int
	ops    int
	stop   <-chan struct{} // open loop only: closed when the closed loops are done
}

func (l *loop) more() bool {
	if l.stop != nil {
		select {
		case <-l.stop:
			return false
		default:
			return true
		}
	}
	if l.maxOps > 0 {
		return l.ops < l.maxOps
	}
	return time.Now().Before(l.until)
}

// timed runs one operation of class cls and records its latency from t0
// (the moment it was sent, or was due in the open loop).
func (l *loop) timed(cls opClass, t0 time.Time, fn func() error) {
	err := fn()
	l.done(cls, t0, time.Now(), err)
}

func (l *loop) done(cls opClass, t0, t1 time.Time, err error) {
	l.ops++
	l.rec.attempted++
	if err != nil {
		l.rec.fail(err)
		return
	}
	l.rec.lat[cls] = append(l.rec.lat[cls], int64(t1.Sub(t0)))
	l.tr.add("op."+classNames[cls], int64(l.conn)<<32|int64(l.ops), t0, t1)
}

var classNames = [nClasses]string{"read", "read_beside_write", "insert_last", "insert_mid", "q_point", "q_count", "q_fallback", "write"}

// env is one set-up: a running server holding the corpus, the sessions
// into it, and the generator's knowledge of what it holds.
type env struct {
	spec  *workloadSpec
	srv   *serverProc
	c     *corpus
	root  axml.NodeID
	ids   []axml.NodeID // order roots, ids[i] is order i
	perm  []int         // Zipf rank -> order index, so hot orders spread over ranges
	conns []*axml.Client
	ctl   *axml.Client // stats and checks, never a workload connection
	seed  int64

	nextSeq    []int        // per connection: sequence number of its next new order
	writeSeq   atomic.Int64 // odd while the open-loop writer has an insert in flight
	acked      int          // acknowledged single-order inserts since load
	userBytes  int64        // XML bytes sent and acknowledged, load included
	wantOpen   string
	wantGlobex string
	hasGlobex  bool
}

var bg = context.Background()

// setUp starts a server on a fresh store under dir, loads the corpus over
// the wire, harvests and checks the order-root ids, and warms up. The
// returned duration is the workload's set-up time; the build is not in it.
func setUp(spec *workloadSpec, serverBin, dir string, seed int64, scale float64, withHTTP bool) (*env, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(spec.orders, scale)
	c := genCorpus(rng, n) // generating inputs is not set-up of the system under test

	t0 := time.Now()
	srv, err := startServer(serverBin, dir, withHTTP)
	if err != nil {
		return nil, 0, err
	}
	e := &env{spec: spec, srv: srv, c: c, seed: seed, perm: rng.Perm(n)}
	fail := func(err error) (*env, time.Duration, error) {
		e.close()
		srv.kill()
		return nil, 0, fmt.Errorf("set-up of %s: %w", spec.name, err)
	}
	nconns := len(spec.loops())
	for i := 0; i <= nconns; i++ {
		cl, err := axml.DialServer(srv.addr, axml.ClientOptions{MaxFrame: 16 << 20})
		if err != nil {
			return fail(err)
		}
		if i == nconns {
			e.ctl = cl
		} else {
			e.conns = append(e.conns, cl)
			e.nextSeq = append(e.nextSeq, 100000*(i+1))
		}
	}

	const rootXML = "<purchase-orders/>"
	if e.root, err = e.ctl.Load(bg, rootXML); err != nil {
		return fail(err)
	}
	e.userBytes = int64(len(rootXML))
	for lo := 0; lo < n; lo += chunkOrders {
		frag := c.chunk(lo, min(lo+chunkOrders, n))
		if _, err := e.ctl.Insert(bg, axml.InsertLast, e.root, frag); err != nil {
			return fail(err)
		}
		e.userBytes += int64(len(frag))
	}

	e.ids = make([]axml.NodeID, 0, n)
	err = e.ctl.QueryStream(bg, "/purchase-orders/purchase-order", func(r axml.Row) error {
		i := len(e.ids)
		if i >= n || r.XML != c.orders[i].xml {
			return fmt.Errorf("harvest: row %d is not order %d of the generator", i, i)
		}
		e.ids = append(e.ids, r.ID)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if len(e.ids) != n {
		return fail(fmt.Errorf("harvest: %d order roots, loaded %d", len(e.ids), n))
	}
	e.wantOpen = strconv.Itoa(c.countStatus("open"))
	e.wantGlobex, e.hasGlobex = c.firstDateOf("Globex")

	warm := e.phase(phaseWarm, 0, scaled(spec.warmup, scale), nil)
	if warm.failed > 0 || warm.mismatched > 0 {
		return fail(fmt.Errorf("warm-up: %d failed, %d wrong: %v", warm.failed, warm.mismatched, warm.firstErr))
	}
	return e, time.Since(t0), nil
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

func (e *env) close() {
	for _, cl := range e.conns {
		cl.Close()
	}
	if e.ctl != nil {
		e.ctl.Close()
	}
}

// Phase tags seed each phase's random sources. The traced run's two
// slices share a tag, so they issue the same operation sequence.
const (
	phaseWarm  = 1
	phaseTimed = 2 // + slice index
)

// phase runs every connection's loop once — for d, or for maxOps
// operations each when maxOps > 0 — and returns what they recorded,
// merged. Acknowledged inserts are added to the env's running totals.
func (e *env) phase(tag int64, d time.Duration, maxOps int, tr *tracer) *recorder {
	specs := e.spec.loops()
	loops := make([]*loop, len(specs))
	closedDone := make(chan struct{})
	for i, c := range specs {
		// Room for what one connection completes in a one-second slice, so
		// that appending a latency does not allocate inside the slice.
		capHint := 1 << 14
		if maxOps > 0 {
			capHint = maxOps
		}
		rec := &recorder{}
		for cls := range rec.lat {
			rec.lat[cls] = make([]int64, 0, capHint)
		}
		loops[i] = &loop{cl: e.conns[i], conn: i, rec: rec, tr: tr, maxOps: maxOps,
			rng: rand.New(rand.NewSource(e.seed*1000003 + tag*101 + int64(i)))}
		if c.openLoop {
			loops[i].stop = closedDone
		}
	}
	var closed, open sync.WaitGroup
	start := time.Now()
	for i, c := range specs {
		l := loops[i]
		l.start, l.until = start, start.Add(d)
		wg := &closed
		if c.openLoop {
			wg = &open
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.body(e, l)
		}()
	}
	closed.Wait()
	close(closedDone)
	open.Wait()
	total := loops[0].rec
	for _, l := range loops[1:] {
		total.merge(l.rec)
	}
	e.acked += total.acked
	e.userBytes += total.ackedBytes
	return total
}

// ---- the connections' loops ----

// read is one ReadNode, classed by whether the open-loop writer had an
// insert in flight at any moment of it (always "read" where there is no
// writer), so that serve-mixed shows its free and its blocked mode apart.
func (e *env) read(l *loop, i int) {
	t0 := time.Now()
	w0 := e.writeSeq.Load()
	xml, err := l.cl.ReadNode(bg, e.ids[i])
	t1 := time.Now()
	cls := clsRead
	if w0%2 == 1 || e.writeSeq.Load() != w0 {
		cls = clsReadBeside
	}
	if err == nil && xml != e.c.orders[i].xml {
		l.rec.mismatch(fmt.Sprintf("ReadNode of order %d", i))
	}
	l.done(cls, t0, t1, err)
}

func (e *env) readUniform(l *loop) {
	for l.more() {
		e.read(l, l.rng.Intn(len(e.ids)))
	}
}

func (e *env) readZipf(l *loop) {
	z := rand.NewZipf(l.rng, zipfS, 1, uint64(len(e.ids)-1))
	for l.more() {
		e.read(l, e.perm[z.Uint64()])
	}
}

// insert sends one new order and records the acknowledgement.
func (e *env) insert(l *loop, cls opClass, t0 time.Time, op axml.InsertOp, target axml.NodeID) {
	o := genOrder(l.rng, e.nextSeq[l.conn])
	e.nextSeq[l.conn]++
	l.timed(cls, t0, func() error {
		id, err := l.cl.Insert(bg, op, target, o.xml)
		if err == nil {
			if id == 0 {
				l.rec.mismatch("insert acknowledged with node id 0")
			}
			l.rec.acked++
			l.rec.ackedBytes += int64(len(o.xml))
		}
		return err
	})
}

func (e *env) ingest(l *loop) {
	for k := 0; l.more(); k++ {
		if k%4 == 3 {
			e.insert(l, clsInsertMid, time.Now(), axml.InsertAfter, e.ids[l.rng.Intn(len(e.ids))])
		} else {
			e.insert(l, clsInsertLast, time.Now(), axml.InsertLast, e.root)
		}
	}
}

// writeOpenLoop sends one insert every writeInterval whatever the server
// does, until the readers beside it have finished: each insert is timed
// from when it was due, and how late it was sent is recorded as the
// generator's lag.
func (e *env) writeOpenLoop(l *loop) {
	z := rand.NewZipf(l.rng, zipfS, 1, uint64(len(e.ids)-1))
	for k := 0; l.more(); k++ {
		due := l.start.Add(time.Duration(k) * writeInterval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		l.rec.lag = append(l.rec.lag, int64(time.Since(due)))
		e.writeSeq.Add(1)
		e.insert(l, clsWrite, due, axml.InsertAfter, e.ids[e.perm[z.Uint64()]])
		e.writeSeq.Add(1)
	}
}

const (
	qPointFmt = "/purchase-orders/purchase-order[@id='%s']"
	qCount    = "count(//purchase-order[@status='open'])"
	qFallback = "//purchase-order[customer='Globex'][1]/date"
	qTotal    = "count(//purchase-order)"
)

func (e *env) queryMix(l *loop) {
	for l.more() {
		switch u := l.rng.Intn(10); {
		case u < 7:
			i := l.rng.Intn(len(e.ids))
			l.timed(clsQPoint, time.Now(), func() error {
				rows, err := l.cl.Query(bg, fmt.Sprintf(qPointFmt, orderID(i)))
				if err == nil && (len(rows) != 1 || rows[0].ID != e.ids[i] || rows[0].XML != e.c.orders[i].xml) {
					l.rec.mismatch(fmt.Sprintf("q-point of order %d: %d rows", i, len(rows)))
				}
				return err
			})
		case u < 9:
			l.timed(clsQCount, time.Now(), func() error {
				v, err := l.cl.Value(bg, qCount)
				if err == nil && v != e.wantOpen {
					l.rec.mismatch(fmt.Sprintf("q-count = %s, generator says %s", v, e.wantOpen))
				}
				return err
			})
		default:
			l.timed(clsQFallback, time.Now(), func() error {
				rows, err := l.cl.Query(bg, qFallback)
				if err != nil {
					return err
				}
				if e.hasGlobex && (len(rows) != 1 || rows[0].XML != e.wantGlobex) || !e.hasGlobex && len(rows) != 0 {
					l.rec.mismatch(fmt.Sprintf("q-fallback: %d rows, want %q", len(rows), e.wantGlobex))
				}
				return nil
			})
		}
	}
}

// ---- the measured run ----

// slice is one equal piece of a timed phase. The host's speed moves by
// tens of per cent from second to second, so the end-to-end metrics are
// computed per slice and reported as a quartile over the slices.
type slice struct {
	rec     *recorder
	elapsed time.Duration
	cpuNs   int64      // server CPU time over the slice
	rssKB   int64      // server resident set at the end of the slice
	host    hostSample // the reference loops: mean of the runs right before and after
}

// rate is the slice's primary operations per second.
func (s *slice) rate(primary []opClass) float64 {
	n := 0
	for _, c := range primary {
		n += len(s.rec.lat[c])
	}
	return float64(n) / s.elapsed.Seconds()
}

// measured is a timed phase with what surrounded it.
type measured struct {
	slices      []slice
	rec         *recorder // all slices merged
	elapsed     time.Duration
	before      procSample
	after       procSample
	statsBefore axml.ServerStatsReport
	statsAfter  axml.ServerStatsReport
	// Bytes on disk (store file + WAL sidecar) and XML bytes acknowledged
	// when the timed phase starts: every acknowledged byte is committed by
	// then, and the pair does not depend on how fast the host ran the phase.
	diskBytes int64
	userBytes int64
}

// measure runs the timed phase in n slices — of d/n each, or of maxOps
// operations per connection when maxOps > 0 — with tracing as given. The
// whole is bracketed by Client.Stats snapshots, each slice by /proc samples
// and, when it is a slice of time, by the two reference loops: host is
// their timing right before the call.
func (e *env) measure(d time.Duration, maxOps, n int, tr *tracer, host hostSample) (*measured, error) {
	m := &measured{rec: &recorder{}}
	var err error
	runtime.GC()
	if m.statsBefore, err = e.ctl.Stats(bg); err != nil {
		return nil, err
	}
	m.diskBytes = fileSize(e.srv.db) + fileSize(e.srv.db+".wal")
	m.userBytes = e.userBytes
	t0 := time.Now()
	for i := 0; i < n; i++ {
		before, err := sampleProc(e.srv.pid())
		if err != nil {
			return nil, err
		}
		if i == 0 {
			m.before = before
		}
		ts := time.Now()
		rec := e.phase(phaseTimed+int64(i), d/time.Duration(n), maxOps, tr)
		sl := slice{rec: rec, elapsed: time.Since(ts)}
		if m.after, err = sampleProc(e.srv.pid()); err != nil {
			return nil, err
		}
		sl.cpuNs, sl.rssKB = m.after.cpuNs-before.cpuNs, m.after.rssKB
		if maxOps == 0 {
			next := sampleHost()
			sl.host, host = host.mid(next), next
		}
		m.slices = append(m.slices, sl)
		m.rec.merge(rec)
	}
	m.elapsed = time.Since(t0)
	if m.statsAfter, err = e.ctl.Stats(bg); err != nil {
		return nil, err
	}
	return m, nil
}

// finish ends the run and applies the part of the correctness gate that
// needs the whole store: the order count is base + acknowledged inserts
// and the file verifies clean. On ingest the server is killed with -9
// first and the count is taken from the reopened file, which catches an
// acknowledgement sent before the log was durable (kill -9 leaves the
// operating system's cache intact, so it does not catch a lost flush).
func (e *env) finish(crash bool) error {
	want := strconv.Itoa(len(e.ids) + e.acked)
	defer e.close()
	if crash {
		e.srv.kill()
		st, err := axml.ReopenFileWAL(e.srv.db, axml.Config{Mode: axml.RangePartial}, "")
		if err != nil {
			return fmt.Errorf("reopen after kill -9: %w", err)
		}
		got, err := axml.QueryValue(st, qTotal)
		if err == nil && got != want {
			err = fmt.Errorf("after kill -9 the store holds %s orders, acknowledged %s", got, want)
		}
		if err == nil {
			err = st.Verify()
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else {
		got, err := e.ctl.Value(bg, qTotal)
		if err != nil {
			e.srv.kill()
			return err
		}
		if err := e.srv.stop(); err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("the store holds %s orders, acknowledged %s", got, want)
		}
	}
	if err := axml.VerifyFile(e.srv.db, axml.Config{Mode: axml.RangePartial}); err != nil {
		return fmt.Errorf("VerifyFile: %w", err)
	}
	return nil
}

package main

// The traced run (-trace 1): a fixed-count slice of the workload's seeded
// operation sequence against the live server, once untraced and once with a
// span around every client call, then a ladder in which each row times the
// same operations one layer further down. Fixed counts, not fixed time, and
// one connection per group, so that every counter repeats exactly wherever
// only one connection is left (read-cold, ingest, query).
//
// This file orchestrates and derives the counter ("S") metrics from
// Client.Stats and /proc deltas; the span ("T") metrics come from the probes
// in layer_*.go, one file per layer, which are the only files that import
// repro/internal/*.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	axml "repro"
)

// ladder is the state the layer probes share.
type ladder struct {
	tr    *tracer
	e     *env
	dir   string // scratch for the probes' own files
	scale float64
	rng   *rand.Rand
	m     map[string]metric
	// reads is the id sequence every read row uses, so rows differ by layer
	// and not by input.
	reads []int
	// meanDirty is the mean number of pages one insert commits, measured by
	// the axml row's pager wrapper and replayed by the wal row.
	meanDirty float64
	st        *axml.Store // the server's file, reopened in process
	wal       walCounts   // what the journal wrappers counted so far
	problems  []string
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// n scales a probe's fixed operation count.
func (l *ladder) n(full int) int { return max(4, int(float64(full)*l.scale)) }

// nq is n for the query rows, whose cost grows with the store: the full
// count on the query workload's 1 000 orders, fewer on larger stores.
func (l *ladder) nq(full int) int {
	if orders := len(l.e.ids); orders > 1000 {
		return max(3, full*1000/orders)
	}
	return l.n(full)
}

func (l *ladder) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// traceOps is the operation count of each of the traced run's two live
// slices, per connection: of the order of 5 % of a timed phase.
var traceOps = map[string]int{"read-cold": 5000, "ingest": 500, "query": 200, "serve-mixed": 5000}

func runTraced(o options, spec *workloadSpec, tmp string, w io.Writer) (*result, error) {
	spec = spec.single()
	dir, err := os.MkdirTemp(tmp, "srv-")
	if err != nil {
		return nil, err
	}
	e, _, err := setUp(spec, o.server, dir, o.seed, o.scale, true)
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*result, error) {
		e.close()
		e.srv.kill()
		return nil, err
	}
	n := scaled(traceOps[spec.name], o.scale)
	tr := newTracer()
	hostBefore := sampleHost()
	plain, err := e.measure(0, n, 1, nil, hostSample{})
	if err != nil {
		return abort(err)
	}
	traced, err := e.measure(0, n, 1, tr, hostSample{})
	if err != nil {
		return abort(err)
	}
	rec := &recorder{}
	rec.merge(plain.rec)
	rec.merge(traced.rec)

	l := &ladder{tr: tr, e: e, dir: tmp, scale: o.scale, rng: rand.New(rand.NewSource(o.seed ^ 0x1adde7)), m: map[string]metric{}}
	l.reads = make([]int, l.n(2000))
	for i := range l.reads {
		l.reads[i] = l.rng.Intn(len(e.ids))
	}
	l.clientMetrics(rec)
	l.counterMetrics(plain, traced)
	host := hostBefore.mid(sampleHost())
	l.set("host.calib_ms", host.calib, "ms")
	l.set("host.chase_ms", host.chase, "ms")
	l.set("trace.overhead_ratio", ratio(plain.slices[0].rate(spec.primary), traced.slices[0].rate(spec.primary)), "ratio")

	// Rows that need the server process: wire, HTTP facade, fleet client.
	if err := l.serverRows(); err != nil {
		return abort(err)
	}
	gateErr := e.finish(false)

	// Rows below the wire, in process, on the file the server just closed.
	if gateErr == nil {
		closeStore := func() error {
			err := l.st.Close()
			if err == nil {
				err = axml.VerifyFile(e.srv.db, axml.Config{Mode: axml.RangePartial})
			}
			return err
		}
		// The store is open from the core row to the axml row; the wal row
		// needs the commit size the axml row measured.
		for _, row := range []func() error{l.tokenRows, l.xmltokRows, l.pagestoreRows, l.openStore,
			l.coreRows, l.xpathRows, l.axmlRows, closeStore, l.walRows, l.replicaRow} {
			if err := row(); err != nil {
				return nil, err
			}
		}
		l.sanity(spec, percentileMs(rec.latencies(spec.primary...), 0.50))
	}

	tracePath := filepath.Join(o.out, "trace-"+spec.name+".json")
	if err := tr.write(tracePath, map[string]any{"workload": spec.name, "seed": o.seed, "scale": o.scale}); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# traced run: 2 x %d ops per connection live, %d spans written to %s\n", n, len(tr.spans), tracePath)

	res := &result{
		Correct:   gateError(rec, gateErr, l.problems) == nil,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   l.m,
	}
	return res, gateError(rec, gateErr, l.problems)
}

// clientMetrics decomposes the workload's op_p50_ms / op_p99_ms by class.
func (l *ladder) clientMetrics(rec *recorder) {
	l.set("client.read_free_p50_ms", percentileMs(rec.lat[clsRead], 0.50), "ms")
	l.set("client.read_beside_write_p50_ms", percentileMs(rec.lat[clsReadBeside], 0.50), "ms")
	l.set("client.write_p50_ms", percentileMs(rec.lat[clsWrite], 0.50), "ms")
	l.set("client.write_p99_ms", percentileMs(rec.lat[clsWrite], 0.99), "ms")
	l.set("client.writer_lag_p99_ms", percentileMs(rec.lag, 0.99), "ms")
	l.set("client.insert_last_p50_ms", percentileMs(rec.lat[clsInsertLast], 0.50), "ms")
	l.set("client.insert_mid_p50_ms", percentileMs(rec.lat[clsInsertMid], 0.50), "ms")
	l.set("client.q_point_p50_ms", percentileMs(rec.lat[clsQPoint], 0.50), "ms")
	l.set("client.q_count_p50_ms", percentileMs(rec.lat[clsQCount], 0.50), "ms")
	l.set("client.q_fallback_p50_ms", percentileMs(rec.lat[clsQFallback], 0.50), "ms")
}

// counterMetrics turns the deltas of Client.Stats and /proc over the two
// live slices into per-layer ratios.
func (l *ladder) counterMetrics(first, last *measured) {
	a, b := first.statsBefore, last.statsAfter
	if a.Store == nil || b.Store == nil {
		l.problem("Client.Stats carried no store section")
		return
	}
	sa, sb := a.Store, b.Store
	d := func(x, y uint64) float64 { return float64(y - x) }
	ops := float64(first.rec.attempted + last.rec.attempted)
	writes := d(sa.Inserts, sb.Inserts)
	ackedBytes := float64(first.rec.ackedBytes + last.rec.ackedBytes)
	pa, pb := first.before, last.after

	l.set("server.ctx_switches_per_op", ratio(float64(pb.ctxSwitches-pa.ctxSwitches), ops), "count")
	l.set("server.rss_peak_mb", float64(pb.hwmKB)/1024, "MB")
	l.set("server.shed_ops", float64(b.Server.OpsShedQuota-a.Server.OpsShedQuota)+float64(b.Server.ConnsShed-a.Server.ConnsShed)+
		d(sa.Admission.Shed, sb.Admission.Shed), "count")
	l.set("axml.admission_queued", d(sa.Admission.Queued, sb.Admission.Queued), "count")

	l.set("core.tokens_scanned_per_lookup", ratio(d(sa.TokensScanned, sb.TokensScanned), d(sa.NodeLookups, sb.NodeLookups)), "count")
	hits, misses := d(sa.PartialHits, sb.PartialHits), d(sa.PartialMisses, sb.PartialMisses)
	l.set("core.partial_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.set("core.partial_invalidations_per_write", ratio(d(sa.PartialInvalidations, sb.PartialInvalidations), writes), "count")
	l.set("core.splits_per_insert", ratio(d(sa.Splits, sb.Splits), writes), "count")
	l.set("core.bytes_per_user_byte", ratio(float64(sb.Bytes), float64(l.e.userBytes)), "ratio")

	ph, pm := d(sa.Pool.Hits, sb.Pool.Hits), d(sa.Pool.Misses, sb.Pool.Misses)
	l.set("pagestore.pool_hit_ratio", ratio(ph, ph+pm), "ratio")
	l.set("pagestore.evictions_per_op", ratio(d(sa.Pool.Evictions, sb.Pool.Evictions), ops), "count")
	l.set("pagestore.flushes_per_write", ratio(d(sa.Pool.Flushes, sb.Pool.Flushes), writes), "count")
	l.set("wal.write_bytes_per_user_byte", ratio(float64(pb.writeBytes-pa.writeBytes), ackedBytes), "ratio")

	push, fall := d(sa.PushdownQueries, sb.PushdownQueries), d(sa.FallbackQueries, sb.FallbackQueries)
	l.set("xpath.pushdown_ratio", ratio(push, push+fall), "ratio")
	ch, cm := d(sa.PlanCacheHits, sb.PlanCacheHits), d(sa.PlanCacheMisses, sb.PlanCacheMisses)
	l.set("plancache.hit_ratio", ratio(ch, ch+cm), "ratio")
}

// sanity checks that the ladder adds up: the rows were timed separately, so
// a sum far from the whole means a row measured something else than it
// claims. The gaps are metrics; a gap above 25 % is also said out loud. It
// does not fail the run: on this host a burst between two rows is enough.
func (l *ladder) sanity(spec *workloadSpec, liveP50Ms float64) {
	insertSum := l.m["xmltok.parse_us_per_order"].Value + l.m["core.insert_mid_us"].Value + l.m["wal.commit_us"].Value
	l.set("ladder.insert_sum_ratio", ratio(insertSum, l.m["axml.insert_us"].Value), "ratio")
	// The read rows replay uniform reads, which is what read-cold issues
	// live; other workloads' live p50 is of another distribution or class.
	readSum := l.m["server.wire_tax_us"].Value + l.m["axml.read_us"].Value
	if spec.name == "read-cold" {
		l.set("ladder.read_sum_ratio", ratio(readSum, liveP50Ms*1e3), "ratio")
	} else {
		l.set("ladder.read_sum_ratio", ratio(readSum, l.tr.medianUs("server.read")), "ratio")
	}
	for _, name := range []string{"ladder.read_sum_ratio", "ladder.insert_sum_ratio"} {
		if v := l.m[name].Value; math.Abs(v-1) > 0.25 {
			fmt.Fprintf(os.Stderr, "benchmark: LADDER DOES NOT ADD UP: %s = %.3f (rows sum to more than 25%% away from the whole)\n", name, v)
		}
	}
}

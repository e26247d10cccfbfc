// Command benchmark drives a real axmlserved, built from the checked-out
// tree, through four workloads and reports end-to-end metrics (-trace 0) or
// per-layer metrics from a traced run (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	root     string // checkout root: where ./cmd/axmlserved is built from

	// Fixed for every benchmark run; only the smoke test sets them.
	work   string  // scratch for binaries and store files (<root>/.bench_build/work)
	out    string  // where trace-<workload>.json goes (<root>/.bench_build/out)
	server string  // prebuilt axmlserved; built into work when empty
	scale  float64 // corpus, warm-up and probe sizes: benchScale
	setups int     // set-ups per run, setup_s being their median: benchSetups
	slices int     // equal pieces of the timed phase: one per second
}

const (
	benchScale  = 1.0
	benchSetups = 3
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{scale: benchScale, setups: benchSetups}
	flag.StringVar(&o.workload, "workload", "", "read-cold, ingest, query or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 18, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the checkout under test")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if res == nil {
			os.Exit(1) // nothing was measured: no result line
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints the metric table to w. A
// run that measured something but failed the correctness gate returns its
// result (Correct false) together with the error, so the table is still
// printed; a run that could not measure returns a nil result.
func run(o options, w io.Writer) (*result, error) {
	spec := findWorkload(o.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q (want read-cold, ingest, query or serve-mixed)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if o.slices == 0 {
		o.slices = max(4, int(math.Round(o.seconds)))
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build", "work")
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "out")
	}
	for _, d := range []string{o.work, o.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if o.server == "" {
		bin, err := buildServer(o.root, o.work)
		if err != nil {
			return nil, err
		}
		o.server = bin
	}
	// Store files live in a directory of this run's own, removed at exit.
	tmp, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %d scale %g\n", spec.name, o.seed, o.seconds, o.trace, o.scale)
	fmt.Fprintf(w, "# host: nproc %d, GOMAXPROCS driver %d server %s, %s, filesystem %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), serverGOMAXPROCS(), runtime.Version(), fsType(tmp))

	var res *result
	if o.trace != 0 {
		res, err = runTraced(o, spec, tmp, w)
	} else {
		res, err = runEndToEnd(o, spec, tmp, w)
	}
	if res != nil {
		printMetrics(w, res)
	}
	return res, err
}

// serverGOMAXPROCS is what the child's runtime will pick: the inherited
// GOMAXPROCS variable when set, else the processor count. The benchmark
// neither pins nor overrides it.
func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v + " (env)"
	}
	return fmt.Sprint(runtime.NumCPU())
}

// runEndToEnd is the untraced run: o.setups set-ups (the last one is
// kept), one timed phase, the correctness gate, the seven end-to-end
// metrics. Every time is reported as measured (raw) and scaled by the host
// factor measured around it; the result line carries the scaled values.
func runEndToEnd(o options, spec *workloadSpec, tmp string, w io.Writer) (*result, error) {
	var (
		e               *env
		setups, setupsN []float64 // seconds: as measured, and scaled
	)
	host := sampleHost()
	for i := 0; i < o.setups; i++ {
		dir, err := os.MkdirTemp(tmp, "srv-")
		if err != nil {
			return nil, err
		}
		var d time.Duration
		if e, d, err = setUp(spec, o.server, dir, o.seed, o.scale, false); err != nil {
			return nil, err
		}
		next := sampleHost()
		setups = append(setups, d.Seconds())
		setupsN = append(setupsN, d.Seconds()/host.mid(next).factor())
		host = next
		if i < o.setups-1 {
			e.close()
			if err := e.srv.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	m, err := e.measure(time.Duration(o.seconds*float64(time.Second)), 0, o.slices, nil, host)
	if err != nil {
		e.close()
		e.srv.kill()
		return nil, err
	}
	gateErr := e.finish(spec.name == "ingest")

	rec := m.rec
	var rates, p50s, cpus, rss, calibs, chases []float64
	for i := range m.slices {
		sl := &m.slices[i]
		rates = append(rates, sl.rate(spec.primary))
		p50s = append(p50s, percentileMs(sl.rec.latencies(spec.primary...), 0.50))
		cpus = append(cpus, ratio(float64(sl.cpuNs)/1e3, float64(sl.rec.attempted-sl.rec.failed)))
		rss = append(rss, float64(sl.rssKB)/1024)
		calibs = append(calibs, sl.host.calib)
		chases = append(chases, sl.host.chase)
	}
	phaseHost := hostSample{median(calibs), median(chases)}
	f := phaseHost.factor()
	primary := rec.latencies(spec.primary...)
	raw := map[string]float64{
		"setup_s":              median(setups),
		"ops_per_s":            betterQuartile(rates, true),
		"op_p50_ms":            betterQuartile(p50s, false),
		"op_p99_ms":            percentileMs(primary, 0.99),
		"server_cpu_us_per_op": betterQuartile(cpus, false),
	}
	res := &result{
		Correct:   gateError(rec, gateErr, nil) == nil,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics: map[string]metric{
			"setup_s":                  {median(setupsN), "s"},
			"ops_per_s":                {raw["ops_per_s"] * f, "1/s"},
			"op_p50_ms":                {raw["op_p50_ms"] / f, "ms"},
			"op_p99_ms":                {raw["op_p99_ms"] / f, "ms"},
			"server_cpu_us_per_op":     {raw["server_cpu_us_per_op"] / f, "us"},
			"server_rss_mb":            {median(rss), "MB"},
			"disk_bytes_per_user_byte": {ratio(float64(m.diskBytes), float64(m.userBytes)), "ratio"},
		},
	}
	fmt.Fprintf(w, "# set-ups %.3f s as measured; timed phase %.2f s in %d slices; primary samples %d (p99 has %d beyond it); server VmHWM %.2f MB\n",
		setups, m.elapsed.Seconds(), len(m.slices), len(primary), len(primary)/100, float64(m.after.hwmKB)/1024)
	fmt.Fprintf(w, "# host factor %.4f over the timed phase: integer loop median %.2f ms (first slice %.1f, last %.1f), load chain median %.2f ms, references %.0f and %.0f ms%s\n",
		f, phaseHost.calib, calibs[0], calibs[len(calibs)-1], phaseHost.chase, calibRefMs, chaseRefMs, disturbed(calibs))
	// One line noise.py reads, so that the same runs can be judged with and
	// without the host factor.
	rawLine, _ := json.Marshal(raw)
	fmt.Fprintf(w, "# as-measured %s\n", rawLine)
	for c := opClass(0); c < nClasses; c++ {
		if n := len(rec.lat[c]); n > 0 {
			fmt.Fprintf(w, "# class %-17s n %-7d p50 %.3f ms  p99 %.3f ms\n", classNames[c], n,
				percentileMs(rec.lat[c], 0.50), percentileMs(rec.lat[c], 0.99))
		}
	}
	fmt.Fprintf(w, "# primary latency histogram (upper edge ms: count):%s\n", histogram(primary))
	return res, gateError(rec, gateErr, nil)
}

// gateError is the correctness gate's verdict: nil when no operation
// failed, no answer was wrong, the whole-store checks passed and no probe
// reported a problem.
func gateError(rec *recorder, storeErr error, problems []string) error {
	var errs []string
	if rec.failed > 0 || rec.mismatched > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d operations failed, %d answers wrong: %v", rec.failed, rec.attempted, rec.mismatched, rec.firstErr))
	}
	if storeErr != nil {
		errs = append(errs, storeErr.Error())
	}
	errs = append(errs, problems...)
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("correctness gate: %s", strings.Join(errs, "; "))
}

// histogram counts latencies (ns) in buckets whose upper edges double from
// 1/64 ms, which is enough to see whether a percentile sits inside a mode
// or between two.
func histogram(ns []int64) string {
	var counts [24]int
	for _, v := range ns {
		b := 0
		for edge := int64(15625); v > edge && b < len(counts)-1; edge *= 2 {
			b++
		}
		counts[b]++
	}
	var sb strings.Builder
	for b, c := range counts {
		if c > 0 {
			fmt.Fprintf(&sb, " %.3g: %d", float64(int64(15625)<<b)/1e6, c)
		}
	}
	return sb.String()
}

// disturbed flags a run whose first and last slice saw the integer loop
// more than 10 % apart.
func disturbed(calibs []float64) string {
	if first, last := calibs[0], calibs[len(calibs)-1]; math.Abs(last-first) > 0.10*first {
		return " — DISTURBED: host speed moved >10% across the timed phase"
	}
	return ""
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
}

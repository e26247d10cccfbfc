package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// driver to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// serverBin is axmlserved built once from the tree above, for all tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-smoke-")
	if err == nil {
		serverBin, err = buildServer("..", dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs the whole pipeline — build, start, load, timed phase,
// correctness gate, traced run with every layer's probe, JSON shape — for
// each workload of BENCHMARK.json at 1/100 scale.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	work := t.TempDir()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	// The workloads run side by side: most of a run this short is the
	// reference loops, which the test does not look at.
	t.Run("workloads", func(t *testing.T) {
		for _, w := range spec.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
					o := options{workload: w.Name, seed: 7, seconds: 0.1, trace: trace, root: "..",
						work: work, out: work, server: serverBin, scale: 0.01, setups: 1, slices: 1}
					res, err := run(o, io.Discard)
					if err != nil {
						t.Fatalf("trace %d: %v", trace, err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Errorf("trace %d: correct %v, attempted %d, failed %d", trace, res.Correct, res.Attempted, res.Failed)
					}
					checkShape(t, w.Name, trace, res, want)
				}
				if _, err := os.Stat(work + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("traced run wrote no span file: %v", err)
				}
			})
		}
	})
	if n := liveServers.Load(); n != 0 {
		t.Errorf("%d axmlserved children still running", n)
	}
	if left, _ := os.ReadDir(work); len(left) > len(spec.Workloads) { // the span files
		var names []string
		for _, e := range left {
			names = append(names, e.Name())
		}
		t.Errorf("run directories left behind: %v", names)
	}
}

// checkShape holds the result line to the contract: exactly the four keys,
// exactly the metrics BENCHMARK.json names, with its units.
func checkShape(t *testing.T, workload string, trace int, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("%s trace %d: result keys %s", workload, trace, got)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", workload, trace, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s trace %d: metric %s missing", workload, trace, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s trace %d: metric %s has unit %q, BENCHMARK.json says %q", workload, trace, m.Name, got.Unit, m.Unit)
		case trace == 0 && !(got.Value > 0):
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, m.Name, got.Value)
		}
	}
}

// TestGateCatchesWrongAnswer makes the generator's record of every order
// disagree with what the server holds and checks that the loops notice.
func TestGateCatchesWrongAnswer(t *testing.T) {
	e, _, err := setUp(findWorkload("read-cold"), serverBin, t.TempDir(), 7, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		e.close()
		e.srv.kill()
	}()
	for i := range e.c.orders {
		e.c.orders[i].xml += " "
	}
	rec := e.phase(phaseTimed, 0, 20, nil)
	if rec.attempted == 0 || rec.mismatched != rec.attempted || rec.firstErr == nil {
		t.Errorf("%d reads against a wrong expectation: %d mismatches, first error %v", rec.attempted, rec.mismatched, rec.firstErr)
	}
}

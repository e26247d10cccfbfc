// Command axmlbench regenerates the paper's evaluation tables and the
// additional figure-style series from DESIGN.md's experiment index.
//
// Usage:
//
//	axmlbench [-exp all|table5|sweep|warmup|mixed|storage|coalesce|idschemes|value-warmup] [flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table5, sweep, warmup, mixed, storage, coalesce, idschemes, value-warmup")
		batches = flag.Int("batches", 0, "insert batches (0 = default)")
		orders  = flag.Int("orders", 0, "purchase orders per batch (0 = default)")
		reads   = flag.Int("reads", 0, "random reads (0 = default)")
		zipf    = flag.Float64("zipf", 0, "read-key skew exponent (0 = default 1.8, <0 = uniform)")
		seed    = flag.Int64("seed", 0, "workload seed (0 = default)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	o := bench.Options{
		InsertBatches:  *batches,
		OrdersPerBatch: *orders,
		RandomReads:    *reads,
		Zipf:           *zipf,
		Seed:           *seed,
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axmlbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "axmlbench:", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	err := run(*exp, o)
	if *cpuProf != "" {
		// Stop explicitly (not deferred): the error path below exits the
		// process, and the profile must be flushed either way.
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, merr := os.Create(*memProf)
		if merr == nil {
			runtime.GC() // flush dead objects so the profile shows live heap
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "axmlbench: memprofile:", merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "axmlbench:", err)
		os.Exit(1)
	}
}

func run(exp string, o bench.Options) error {
	all := exp == "all"
	if all || exp == "table5" {
		fmt.Println("=== E1: Table 5 — lazy indexing in XML storage ===")
		rows, err := bench.RunTable5(o)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable5(rows))
		fmt.Println(bench.FormatStats(rows))
	}
	if all || exp == "sweep" {
		fmt.Println("=== E2: range-granularity sweep ===")
		points, err := bench.RunRangeSweep(o, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatSweep(points))
	}
	if all || exp == "warmup" {
		fmt.Println("=== E3: partial-index warm-up ===")
		ws, err := bench.RunPartialWarmup(o, 10)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatWarmup(ws))
	}
	if all || exp == "mixed" {
		fmt.Println("=== E4: mixed read/update workloads ===")
		points, err := bench.RunMixedWorkload(o, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatMixed(points))
	}
	if all || exp == "storage" {
		fmt.Println("=== E5: storage overhead ===")
		rows, err := bench.RunStorageOverhead(o)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatStorage(rows))
	}
	if all || exp == "coalesce" {
		fmt.Println("=== E7: adaptive coalescing under churn ===")
		rows, err := bench.RunCoalesceAblation(o)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatCoalesce(rows))
	}
	if all || exp == "idschemes" {
		fmt.Println("=== E6: ID-scheme orthogonality ===")
		rows, err := bench.RunIDSchemes(o)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatIDSchemes(rows))
	}
	if all || exp == "value-warmup" {
		fmt.Println("=== E12/E13: lazy value-index warm-up ===")
		orders := 20000 // the benchmark's larger corpus
		if o.InsertBatches > 0 && o.OrdersPerBatch > 0 {
			orders = o.InsertBatches * o.OrdersPerBatch
		}
		for _, shape := range bench.ValueWarmupShapes {
			ws, err := bench.RunValueWarmup(o, orders, shape.Query)
			if err != nil {
				return err
			}
			fmt.Printf("%s\n%s\n", shape.Name, bench.FormatValueWarmup(ws))
		}
	}
	switch exp {
	case "all", "table5", "sweep", "warmup", "mixed", "storage", "coalesce", "idschemes", "value-warmup":
		return nil
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

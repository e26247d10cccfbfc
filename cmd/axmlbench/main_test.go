package main

import "testing"

import "repro/internal/bench"

func tiny() bench.Options {
	return bench.Options{
		InsertBatches:  4,
		OrdersPerBatch: 5,
		RandomReads:    40,
		Zipf:           1.6,
		Seed:           3,
	}
}

func TestRunEachExperiment(t *testing.T) {
	for _, exp := range []string{
		"table5", "sweep", "warmup", "mixed", "storage", "coalesce", "idschemes", "value-warmup",
	} {
		if err := run(exp, tiny()); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", tiny()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

package bench

import (
	"strings"
	"testing"
)

// small returns options sized for fast unit tests.
func small() Options {
	return Options{
		InsertBatches:  20,
		OrdersPerBatch: 20,
		RandomReads:    400,
		Zipf:           1.6,
		Seed:           7,
	}
}

func TestRunTable5ShapeHolds(t *testing.T) {
	rows, err := RunTable5(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.Insert.KBps() <= 0 || r.SeqScan.KBps() <= 0 || r.RandomRead.KBps() <= 0 {
			t.Errorf("%s: zero metric: %+v", r.Config, r)
		}
	}
	full := byName["Full Index (max. granularity)"]
	granular := byName["Range Index (many, granular entries)"]
	coarse := byName["Range Index (few, coarse, large entries)"]
	partial := byName["Range Index (coarse) + Partial Index"]

	// The paper's qualitative results (Table 5), asserted on the work each
	// configuration does rather than on kb/s: the clock figures are printed
	// but move with the host's load, the counters do not (on small() they are
	// the same on every run).
	// 1. Range configurations insert faster than the full index: an insert
	// maintains far fewer index entries.
	if coarse, full := indexEntries(coarse), indexEntries(full); coarse >= full {
		t.Errorf("coarse keeps %d index entries, should be fewer than the full index's %d", coarse, full)
	}
	// 2. Coarse ranges have the slowest random reads: a lookup replays the
	// most tokens.
	for _, r := range []Row{full, granular, partial} {
		if scannedPerLookup(coarse) <= scannedPerLookup(r) {
			t.Errorf("coarse scans %.1f tokens per lookup, should be more than %s's %.1f",
				scannedPerLookup(coarse), r.Config, scannedPerLookup(r))
		}
	}
	// 3. The partial index rescues the coarse configuration's random reads:
	// replay checkpoints already shorten coarse's replays, and the partial
	// index at least halves what is left.
	if 2*scannedPerLookup(partial) > scannedPerLookup(coarse) {
		t.Errorf("partial scans %.1f tokens per lookup, should be at most half of coarse's %.1f",
			scannedPerLookup(partial), scannedPerLookup(coarse))
	}
	// 4. Index population matches the configuration.
	if full.Stats.FullIndexEntries == 0 {
		t.Error("full config has no full-index entries")
	}
	if granular.Stats.RangeIndexEntries <= coarse.Stats.RangeIndexEntries {
		t.Error("granular config should have more range entries than coarse")
	}
	if partial.Stats.PartialHits == 0 {
		t.Error("partial index never hit")
	}
	// Formatting smoke checks.
	tbl := FormatTable5(rows)
	if !strings.Contains(tbl, "Partial Index") || !strings.Contains(tbl, "Insert") {
		t.Errorf("table formatting: %s", tbl)
	}
	st := FormatStats(rows)
	if !strings.Contains(st, "ranges") {
		t.Errorf("stats formatting: %s", st)
	}
}

// indexEntries is the index entries a configuration maintains: one per
// range in the Range Index, one per node in the Full Index.
func indexEntries(r Row) int { return r.Stats.RangeIndexEntries + r.Stats.FullIndexEntries }

// scannedPerLookup is the tokens a configuration's lookups replay on average.
func scannedPerLookup(r Row) float64 {
	return float64(r.Stats.TokensScanned) / float64(max(r.Stats.NodeLookups, 1))
}

func TestRunRangeSweep(t *testing.T) {
	o := small()
	// Large insert batches so the unbounded configuration's ranges are
	// genuinely coarse (thousands of tokens).
	o.InsertBatches, o.OrdersPerBatch = 8, 100
	points, err := RunRangeSweep(o, []int{16, 256, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// Finer granularity => more ranges.
	if points[0].Ranges <= points[1].Ranges || points[1].Ranges <= points[2].Ranges {
		t.Errorf("range counts not decreasing with granularity: %d %d %d",
			points[0].Ranges, points[1].Ranges, points[2].Ranges)
	}
	// Finer granularity => faster random reads than unbounded.
	if points[0].RandomRead.KBps() <= points[2].RandomRead.KBps() {
		t.Errorf("granular random (%.1f) should beat coarse (%.1f)",
			points[0].RandomRead.KBps(), points[2].RandomRead.KBps())
	}
	if s := FormatSweep(points); !strings.Contains(s, "unbounded") {
		t.Errorf("sweep formatting: %s", s)
	}
}

func TestRunPartialWarmup(t *testing.T) {
	ws, err := RunPartialWarmup(small(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 5 {
		t.Fatalf("got %d windows", len(ws))
	}
	// The lazy index must warm: final window hit rate far above the first.
	if ws[4].HitRate <= ws[0].HitRate {
		t.Errorf("hit rate did not improve: first %.2f, last %.2f", ws[0].HitRate, ws[4].HitRate)
	}
	if ws[4].Entries == 0 {
		t.Error("no partial entries after warmup")
	}
	if s := FormatWarmup(ws); !strings.Contains(s, "hit rate") {
		t.Errorf("warmup formatting: %s", s)
	}
}

func TestRunMixedWorkload(t *testing.T) {
	o := small()
	o.RandomReads = 150
	points, err := RunMixedWorkload(o, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 { // 2 fractions x 3 configs
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.OpsPerSec <= 0 {
			t.Errorf("%+v: zero throughput", p)
		}
	}
	if s := FormatMixed(points); !strings.Contains(s, "range+partial") {
		t.Errorf("mixed formatting: %s", s)
	}
}

func TestRunStorageOverhead(t *testing.T) {
	rows, err := RunStorageOverhead(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	var full, coarse StorageRow
	for _, r := range rows {
		if strings.HasPrefix(r.Config, "Full") {
			full = r
		}
		if strings.Contains(r.Config, "few, coarse") {
			coarse = r
		}
	}
	// The headline claim: per-node indexing costs far more space.
	if full.BytesPerNode <= 5*coarse.BytesPerNode {
		t.Errorf("full index %.2f B/node should dwarf coarse %.2f B/node",
			full.BytesPerNode, coarse.BytesPerNode)
	}
	if s := FormatStorage(rows); !strings.Contains(s, "B/node") {
		t.Errorf("storage formatting: %s", s)
	}
}

func TestRunCoalesceAblation(t *testing.T) {
	o := small()
	o.RandomReads = 100
	rows, err := RunCoalesceAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	off, on := rows[0], rows[1]
	if on.Merges == 0 {
		t.Error("coalescing never merged")
	}
	if on.Ranges >= off.Ranges {
		t.Errorf("coalescing ranges %d >= plain %d", on.Ranges, off.Ranges)
	}
	if s := FormatCoalesce(rows); !strings.Contains(s, "merges") {
		t.Errorf("formatting: %s", s)
	}
}

func TestRunIDSchemes(t *testing.T) {
	rows, err := RunIDSchemes(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]IDSchemeRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.Labels == 0 || r.GenPerSec <= 0 || r.CmpPerSec <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Scheme, r)
		}
	}
	// All schemes label the same node count (orthogonality).
	if byName["sequential"].Labels != byName["dewey"].Labels ||
		byName["dewey"].Labels != byName["ordpath"].Labels {
		t.Error("schemes disagree on node count")
	}
	if !byName["ordpath"].SupportsBetween {
		t.Error("ordpath must support insert-between")
	}
	if byName["sequential"].SupportsBetween {
		t.Error("sequential cannot support insert-between")
	}
	if byName["sequential"].AvgLabelBytes != 8 {
		t.Errorf("sequential label size %.1f", byName["sequential"].AvgLabelBytes)
	}
	if s := FormatIDSchemes(rows); !strings.Contains(s, "ordpath") {
		t.Errorf("idscheme formatting: %s", s)
	}
}

func TestMetricKBps(t *testing.T) {
	m := Metric{Ops: 10, Bytes: 10240, Seconds: 2}
	if m.KBps() != 5 {
		t.Errorf("KBps = %f", m.KBps())
	}
	if (Metric{}).KBps() != 0 {
		t.Error("zero metric should not divide by zero")
	}
	if !strings.Contains(m.String(), "kb/s") {
		t.Error("metric string")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.InsertBatches == 0 || o.RandomReads == 0 || o.Seed == 0 || o.PartialCapacity == 0 {
		t.Errorf("defaults missing: %+v", o)
	}
}

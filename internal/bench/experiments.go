package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/idscheme"
	"repro/internal/token"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// E2 — range-granularity sweep. The paper's text: "an index containing many
// entries (even coarse-grained) also leads to performance decrease at insert
// time", while very coarse ranges make random reads scan far.

// SweepPoint is one granularity setting's measurements.
type SweepPoint struct {
	MaxRangeTokens int // 0 = unbounded (one range per insert batch)
	Insert         Metric
	RandomRead     Metric
	Ranges         int
}

// RunRangeSweep measures insert and random-read speed across range
// granularities under the plain range index.
func RunRangeSweep(o Options, granularities []int) ([]SweepPoint, error) {
	o = o.withDefaults()
	if len(granularities) == 0 {
		granularities = []int{8, 32, 128, 512, 2048, 0}
	}
	var out []SweepPoint
	for _, g := range granularities {
		cfg := Configuration{
			Name: fmt.Sprintf("maxRangeTokens=%d", g),
			Cfg:  core.Config{Mode: core.RangeOnly, MaxRangeTokens: g},
		}
		row, err := runOne(cfg, o)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			MaxRangeTokens: g,
			Insert:         row.Insert,
			RandomRead:     row.RandomRead,
			Ranges:         row.Stats.Ranges,
		})
	}
	return out, nil
}

// FormatSweep renders the sweep series.
func FormatSweep(points []SweepPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%16s %10s %14s %14s\n", "max range toks", "ranges", "Insert (kb/s)", "Random (kb/s)")
	for _, p := range points {
		label := fmt.Sprintf("%d", p.MaxRangeTokens)
		if p.MaxRangeTokens == 0 {
			label = "unbounded"
		}
		fmt.Fprintf(&sb, "%16s %10d %14.2f %14.2f\n", label, p.Ranges, p.Insert.KBps(), p.RandomRead.KBps())
	}
	return sb.String()
}

// E3 — partial-index warm-up: throughput and hit rate over successive read
// windows against a coarse store ("cache-like", Section 5).

// WarmupWindow is one window of the warm-up series.
type WarmupWindow struct {
	Window  int
	Reads   int
	KBps    float64
	HitRate float64
	Entries int
}

// RunPartialWarmup performs windows of skewed random reads on a coarse
// store with the partial index and reports per-window speed and hit rate.
func RunPartialWarmup(o Options, windows int) ([]WarmupWindow, error) {
	o = o.withDefaults()
	if windows <= 0 {
		windows = 10
	}
	s, err := core.Open(core.Config{Mode: core.RangePartial, PartialCapacity: o.PartialCapacity})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	gen := workload.New(o.Seed)
	if _, err := s.Append(gen.PurchaseOrdersDoc(o.InsertBatches * o.OrdersPerBatch)); err != nil {
		return nil, err
	}
	maxID := s.Stats().Nodes
	zipf := o.Zipf
	if zipf <= 0 {
		zipf = 1.4
	}
	keys := sampleKeys(gen, maxID, zipf, o.RandomReads)

	perWindow := o.RandomReads / windows
	if perWindow == 0 {
		perWindow = 1
	}
	var out []WarmupWindow
	prev := s.Stats()
	for w := 0; w < windows; w++ {
		var bytes int64
		start := time.Now()
		for i := 0; i < perWindow; i++ {
			id := keys[(w*perWindow+i)%len(keys)]
			err := s.ScanNode(id, func(it core.Item) bool {
				bytes += int64(tokenBytes(it.Tok))
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		secs := time.Since(start).Seconds()
		st := s.Stats()
		lookups := (st.PartialHits + st.PartialMisses) - (prev.PartialHits + prev.PartialMisses)
		hits := st.PartialHits - prev.PartialHits
		hitRate := 0.0
		if lookups > 0 {
			hitRate = float64(hits) / float64(lookups)
		}
		kbps := 0.0
		if secs > 0 {
			kbps = float64(bytes) / 1024 / secs
		}
		out = append(out, WarmupWindow{
			Window: w + 1, Reads: perWindow, KBps: kbps,
			HitRate: hitRate, Entries: st.PartialEntries,
		})
		prev = st
	}
	return out, nil
}

// FormatWarmup renders the warm-up series.
func FormatWarmup(ws []WarmupWindow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %8s %12s %9s %9s\n", "window", "reads", "kb/s", "hit rate", "entries")
	for _, w := range ws {
		fmt.Fprintf(&sb, "%8d %8d %12.1f %8.1f%% %9d\n",
			w.Window, w.Reads, w.KBps, 100*w.HitRate, w.Entries)
	}
	return sb.String()
}

// E12/E13 — lazy value-index warm-up, the same curve for content: the first
// query of a shape pays the scan, the second the fill scan, the rest a lookup
// — and, for a shape with steps behind its predicate, one subtree read.

// ValueWarmupShapes are the two shapes measured, each a query for the i-th
// draw: q-point's attribute predicate and q-fallback's child predicate with
// [1] and a step behind it.
var ValueWarmupShapes = []struct {
	Name  string
	Query func(i uint64) string
}{
	{"[@id='…']", func(i uint64) string { return fmt.Sprintf("/purchase-orders/purchase-order[@id='PO-%06d']", i) }},
	{"[customer='…'][1]/date", func(i uint64) string {
		return fmt.Sprintf("//purchase-order[customer='%s'][1]/date", [...]string{"Globex", "Initech", "Tyrell"}[i%3])
	}},
}

// ValueWarmupWindow is the queries issued since the previous window: their hit
// rate and mean latency, and the store's running totals.
type ValueWarmupWindow struct {
	Issued              int
	HitRate, MeanMicros float64
	TokensScanned       uint64
	TableBytes          int64
}

// RunValueWarmup issues o.RandomReads queries of one shape, a random draw
// each, over a document of orders purchase orders; windows end after 1, 2, 3,
// 4, 8, 16, … queries.
func RunValueWarmup(o Options, orders int, query func(i uint64) string) ([]ValueWarmupWindow, error) {
	o = o.withDefaults()
	s, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	gen := workload.New(o.Seed)
	if _, err := s.Append(gen.PurchaseOrdersDoc(orders)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	order := gen.Uniform(uint64(orders))
	var out []ValueWarmupWindow
	prev, issued := s.Stats(), 0
	for end := 1; issued < o.RandomReads; end = max(end+1, end/4*8) {
		end = min(end, o.RandomReads)
		start := time.Now()
		for ; issued < end; issued++ {
			q := query(order() - 1)
			if ids, err := xpath.QueryIDsCtx(ctx, s, q); err != nil || len(ids) != 1 {
				return nil, fmt.Errorf("query %d %s: %d ids, %v", issued, q, len(ids), err)
			}
		}
		micros := float64(time.Since(start).Microseconds())
		st := s.Stats()
		asked := float64(st.ValueIndexHits + st.ValueIndexMisses - prev.ValueIndexHits - prev.ValueIndexMisses)
		out = append(out, ValueWarmupWindow{
			Issued: issued, HitRate: float64(st.ValueIndexHits-prev.ValueIndexHits) / asked, MeanMicros: micros / asked,
			TokensScanned: st.TokensScanned, TableBytes: st.ValueIndexBytes,
		})
		prev = st
	}
	return out, nil
}

// FormatValueWarmup renders the value-index warm-up series.
func FormatValueWarmup(ws []ValueWarmupWindow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %9s %12s %14s %12s\n", "queries", "hit rate", "mean µs", "toks scanned", "table bytes")
	for _, w := range ws {
		fmt.Fprintf(&sb, "%8d %8.1f%% %12.1f %14d %12d\n", w.Issued, 100*w.HitRate, w.MeanMicros, w.TokensScanned, w.TableBytes)
	}
	return sb.String()
}

// E4 — mixed read/update workloads across the three index modes: the
// adaptivity claim is that the lazy configuration tracks the best performer
// as the mix shifts.

// MixPoint is one (configuration, read fraction) measurement.
type MixPoint struct {
	Config       string
	ReadFraction float64
	OpsPerSec    float64
}

// RunMixedWorkload interleaves random subtree reads with insertIntoLast
// updates of random elements at the given read fractions.
func RunMixedWorkload(o Options, fractions []float64) ([]MixPoint, error) {
	o = o.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	configs := []Configuration{
		{Name: "full", Cfg: core.Config{Mode: core.FullIndex, MaxRangeTokens: o.GranularRangeTokens}},
		{Name: "range", Cfg: core.Config{Mode: core.RangeOnly}},
		{Name: "range+partial", Cfg: core.Config{Mode: core.RangePartial, PartialCapacity: o.PartialCapacity}},
	}
	totalOps := o.RandomReads
	var out []MixPoint
	for _, frac := range fractions {
		for _, c := range configs {
			s, err := core.Open(c.Cfg)
			if err != nil {
				return nil, err
			}
			gen := workload.New(o.Seed)
			if _, err := s.Append(gen.PurchaseOrdersDoc(o.InsertBatches * o.OrdersPerBatch / 4)); err != nil {
				s.Close()
				return nil, err
			}
			maxID := s.Stats().Nodes
			keys := sampleKeys(gen, maxID, o.Zipf, totalOps)
			frag := gen.PurchaseOrder(999999)
			start := time.Now()
			for i := 0; i < totalOps; i++ {
				id := keys[i]
				if float64(i%100)/100 < frac {
					err = s.ScanNode(id, func(core.Item) bool { return true })
				} else {
					// Updates target element nodes; retarget on mismatch.
					if _, ierr := s.InsertAfter(id, frag); ierr == nil {
						err = nil
					} else {
						// Fall back to appending at the document tail.
						_, err = s.Append(frag)
					}
				}
				if err != nil {
					s.Close()
					return nil, err
				}
			}
			secs := time.Since(start).Seconds()
			s.Close()
			out = append(out, MixPoint{
				Config: c.Name, ReadFraction: frac,
				OpsPerSec: float64(totalOps) / secs,
			})
		}
	}
	return out, nil
}

// FormatMixed renders the mixed-workload matrix: one row per read fraction,
// one column per configuration.
func FormatMixed(points []MixPoint) string {
	configs := []string{}
	fractions := []float64{}
	byKey := map[string]float64{}
	seenC := map[string]bool{}
	seenF := map[float64]bool{}
	for _, p := range points {
		if !seenC[p.Config] {
			seenC[p.Config] = true
			configs = append(configs, p.Config)
		}
		if !seenF[p.ReadFraction] {
			seenF[p.ReadFraction] = true
			fractions = append(fractions, p.ReadFraction)
		}
		byKey[fmt.Sprintf("%s|%v", p.Config, p.ReadFraction)] = p.OpsPerSec
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s", "reads%")
	for _, c := range configs {
		fmt.Fprintf(&sb, " %16s", c)
	}
	sb.WriteString("  (ops/s)\n")
	for _, f := range fractions {
		fmt.Fprintf(&sb, "%11.0f%%", f*100)
		for _, c := range configs {
			fmt.Fprintf(&sb, " %16.0f", byKey[fmt.Sprintf("%s|%v", c, f)])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// E5 — storage overhead (desideratum 6 / Section 6.1): index bytes per
// stored node for each configuration.

// StorageRow reports the space accounting of one configuration.
type StorageRow struct {
	Config       string
	Nodes        uint64
	DataBytes    uint64
	IndexEntries int
	IndexBytes   uint64 // estimated in-memory index footprint
	BytesPerNode float64
}

// Estimated per-entry sizes: a range-index entry is a rangeInfo (~64 bytes
// with B+tree overhead); a full-index entry is key+value in the B+tree
// (~24 bytes); a partial entry is ~80 bytes with map overhead.
const (
	rangeEntryBytes   = 64
	fullEntryBytes    = 24
	partialEntryBytes = 80
)

// RunStorageOverhead loads the same document under each configuration and
// accounts for index space.
func RunStorageOverhead(o Options) ([]StorageRow, error) {
	o = o.withDefaults()
	var out []StorageRow
	for _, c := range Table5Configs(o) {
		s, err := core.Open(c.Cfg)
		if err != nil {
			return nil, err
		}
		gen := workload.New(o.Seed)
		if _, err := s.Append(gen.PurchaseOrdersDoc(o.InsertBatches * o.OrdersPerBatch)); err != nil {
			s.Close()
			return nil, err
		}
		// Touch some nodes so the partial index holds entries.
		maxID := s.Stats().Nodes
		sample := workload.New(o.Seed).Zipf(maxID, 1.3)
		for i := 0; i < o.RandomReads/4; i++ {
			s.ScanNode(core.NodeID(sample()), func(core.Item) bool { return false })
		}
		st := s.Stats()
		entries := st.RangeIndexEntries
		bytes := uint64(st.RangeIndexEntries * rangeEntryBytes)
		switch c.Cfg.Mode {
		case core.FullIndex:
			entries += st.FullIndexEntries
			bytes += uint64(st.FullIndexEntries * fullEntryBytes)
		case core.RangePartial:
			entries += st.PartialEntries
			bytes += uint64(st.PartialEntries * partialEntryBytes)
		}
		out = append(out, StorageRow{
			Config: c.Name, Nodes: st.Nodes, DataBytes: st.Bytes,
			IndexEntries: entries, IndexBytes: bytes,
			BytesPerNode: float64(bytes) / float64(st.Nodes),
		})
		s.Close()
	}
	return out, nil
}

// FormatStorage renders the storage accounting.
func FormatStorage(rows []StorageRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-42s %10s %12s %12s %12s %10s\n",
		"Indexing approach", "nodes", "data bytes", "idx entries", "idx bytes", "B/node")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-42s %10d %12d %12d %12d %10.2f\n",
			r.Config, r.Nodes, r.DataBytes, r.IndexEntries, r.IndexBytes, r.BytesPerNode)
	}
	return sb.String()
}

// E7 — adaptive coalescing ablation (future-work extension): a churn
// workload (interleaved deletes and re-inserts over a granular-loaded store)
// fragments the range structure; coalescing merges id-contiguous neighbours
// back together, keeping the range index small and scans short.

// CoalesceRow compares one configuration under churn.
type CoalesceRow struct {
	Config     string
	Ranges     int
	Merges     uint64
	ChurnSecs  float64
	ScanKBps   float64
	RandomKBps float64
}

// RunCoalesceAblation applies the same churn to a store with and without
// coalescing and compares the resulting fragmentation and read speed.
func RunCoalesceAblation(o Options) ([]CoalesceRow, error) {
	o = o.withDefaults()
	configs := []Configuration{
		{Name: "coalescing off", Cfg: core.Config{Mode: core.RangeOnly, MaxRangeTokens: o.GranularRangeTokens}},
		{Name: "coalescing on", Cfg: core.Config{Mode: core.RangeOnly, MaxRangeTokens: o.GranularRangeTokens, CoalesceBytes: 1 << 14}},
	}
	var out []CoalesceRow
	for _, c := range configs {
		s, err := core.Open(c.Cfg)
		if err != nil {
			return nil, err
		}
		gen := workload.New(o.Seed)
		if _, err := s.Append(gen.PurchaseOrdersDoc(o.InsertBatches * o.OrdersPerBatch / 4)); err != nil {
			s.Close()
			return nil, err
		}
		// Churn: delete a random purchase order, append a replacement at
		// the end, repeatedly.
		churnOps := o.RandomReads
		maxID := s.Stats().Nodes
		keys := sampleKeys(gen, maxID, -1, churnOps)
		start := time.Now()
		for i := 0; i < churnOps; i++ {
			id := keys[i]
			if err := s.DeleteNode(core.NodeID(id)); err != nil {
				continue // id may already be gone; churn on
			}
			if _, err := s.Append(gen.PurchaseOrder(100000 + i)); err != nil {
				s.Close()
				return nil, err
			}
		}
		churn := time.Since(start).Seconds()

		// Post-churn read speeds.
		start = time.Now()
		var scanBytes int64
		s.Scan(func(it core.Item) bool {
			scanBytes += int64(tokenBytes(it.Tok))
			return true
		})
		scanSecs := time.Since(start).Seconds()

		maxID = uint64(0)
		s.Scan(func(it core.Item) bool {
			if uint64(it.ID) > maxID {
				maxID = uint64(it.ID)
			}
			return true
		})
		reads := o.RandomReads
		var readBytes int64
		start = time.Now()
		done := 0
		for i := 0; done < reads; i++ {
			id := core.NodeID(gen.Uniform(maxID)())
			err := s.ScanNode(id, func(it core.Item) bool {
				readBytes += int64(tokenBytes(it.Tok))
				return true
			})
			if err == nil {
				done++
			}
			if i > reads*10 {
				break
			}
		}
		readSecs := time.Since(start).Seconds()

		st := s.Stats()
		out = append(out, CoalesceRow{
			Config: c.Name, Ranges: st.Ranges, Merges: st.Merges,
			ChurnSecs:  churn,
			ScanKBps:   float64(scanBytes) / 1024 / scanSecs,
			RandomKBps: float64(readBytes) / 1024 / readSecs,
		})
		s.Close()
	}
	return out, nil
}

// FormatCoalesce renders the ablation.
func FormatCoalesce(rows []CoalesceRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s %12s %14s %14s\n",
		"config", "ranges", "merges", "churn (s)", "scan (kb/s)", "random (kb/s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10d %10d %12.3f %14.1f %14.1f\n",
			r.Config, r.Ranges, r.Merges, r.ChurnSecs, r.ScanKBps, r.RandomKBps)
	}
	return sb.String()
}

// E6 — ID scheme orthogonality (Section 6): label generation speed, label
// size and comparison cost for the sequential, Dewey and ORDPATH schemes.

// IDSchemeRow reports one scheme's characteristics over a document walk.
type IDSchemeRow struct {
	Scheme          string
	Labels          int
	GenPerSec       float64
	AvgLabelBytes   float64
	CmpPerSec       float64
	SupportsBetween bool
}

// RunIDSchemes walks the same document under each scheme.
func RunIDSchemes(o Options) ([]IDSchemeRow, error) {
	o = o.withDefaults()
	gen := workload.New(o.Seed)
	doc := gen.PurchaseOrdersDoc(o.InsertBatches * o.OrdersPerBatch / 4)
	schemes := []idscheme.Scheme{idscheme.Sequential{}, idscheme.Dewey{}, idscheme.OrdPath{}}
	var out []IDSchemeRow
	for _, sc := range schemes {
		// Generation.
		start := time.Now()
		var labels []idscheme.Label
		f := sc.NewFactory(sc.Initial())
		for _, t := range doc {
			if l, ok := f.Next(t); ok {
				labels = append(labels, l)
			}
		}
		genSecs := time.Since(start).Seconds()
		var totalBytes int
		for _, l := range labels {
			totalBytes += len(l)
		}
		// Comparison over adjacent pairs, repeated.
		const cmpRounds = 20
		start = time.Now()
		cmps := 0
		for round := 0; round < cmpRounds; round++ {
			for i := 1; i < len(labels); i++ {
				sc.Compare(labels[i-1], labels[i])
				cmps++
			}
		}
		cmpSecs := time.Since(start).Seconds()
		_, betweenErr := sc.Between(sc.Initial(), mustNext(sc))
		out = append(out, IDSchemeRow{
			Scheme:          sc.Name(),
			Labels:          len(labels),
			GenPerSec:       float64(len(labels)) / genSecs,
			AvgLabelBytes:   float64(totalBytes) / float64(len(labels)),
			CmpPerSec:       float64(cmps) / cmpSecs,
			SupportsBetween: betweenErr == nil,
		})
	}
	return out, nil
}

// mustNext produces a second sibling label for the Between probe.
func mustNext(sc idscheme.Scheme) idscheme.Label {
	f := sc.NewFactory(sc.Initial())
	frag := []token.Token{
		token.Elem("a"), token.EndElem(),
		token.Elem("b"), token.EndElem(),
	}
	var last idscheme.Label
	for _, t := range frag {
		if l, ok := f.Next(t); ok {
			last = l
		}
	}
	return last
}

// FormatIDSchemes renders the scheme comparison.
func FormatIDSchemes(rows []IDSchemeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %14s %12s %14s %16s\n",
		"scheme", "labels", "gen labels/s", "avg bytes", "compares/s", "insert-between")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10d %14.0f %12.2f %14.0f %16v\n",
			r.Scheme, r.Labels, r.GenPerSec, r.AvgLabelBytes, r.CmpPerSec, r.SupportsBetween)
	}
	return sb.String()
}

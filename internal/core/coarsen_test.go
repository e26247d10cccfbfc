package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/token"
	"repro/internal/workload"
	"repro/internal/xmltok"
)

// coarsenReplay drives ingest's pattern — three orders appended to the root
// for every one inserted next to an earlier order — and checks after every
// op what coarsening must keep true:
//
//   - the document is exactly the orders in the order they were placed, each
//     under the ids its insert returned;
//   - an append never splits a range: the root's end token stays in the one
//     id-less range it was split into, which no merge absorbs;
//   - a range whose content changed has a new version, so nothing learned
//     about it before validates again.
//
// near picks the order a middle insert goes after: base orders (ingest) or
// any earlier one. It returns the store's counters at the end.
func coarsenReplay(t *testing.T, cfg Config, base, ops int, near func(r *rand.Rand, placed int) int) Stats {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := workload.New(42)
	r := rand.New(rand.NewSource(42))
	root, err := s.Append(frag(`<purchase-orders/>`))
	if err != nil {
		t.Fatal(err)
	}
	var xml []string // by sequence number
	var ids []NodeID // by sequence number
	var order []int  // sequence numbers in document order
	var chunk []Token
	var sizes []int
	for seq := 0; seq < base; seq++ {
		po := gen.PurchaseOrder(seq)
		x, err := xmltok.ToString(po)
		if err != nil {
			t.Fatal(err)
		}
		xml = append(xml, x)
		order = append(order, seq)
		chunk = append(chunk, po...)
		sizes = append(sizes, token.NodeCount(po))
	}
	if base > 0 {
		id, err := s.InsertIntoLast(root, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			ids = append(ids, id)
			id += NodeID(n)
		}
	}
	var end *rangeInfo // the id-less range holding the root's end token
	for _, ri := range s.idless {
		end = ri
	}
	for k := 0; k < ops; k++ {
		seq := len(xml)
		po := gen.PurchaseOrder(seq)
		x, err := xmltok.ToString(po)
		if err != nil {
			t.Fatal(err)
		}
		xml = append(xml, x)
		before, splits, appendSplits := rangeVersions(s), s.splits, end != nil
		var id NodeID
		if k%4 == 3 {
			after := near(r, seq)
			if id, err = s.InsertAfter(ids[after], po); err != nil {
				t.Fatal(err)
			}
			order = slices.Insert(order, slices.Index(order, after)+1, seq)
		} else {
			if id, err = s.InsertIntoLast(root, po); err != nil {
				t.Fatal(err)
			}
			order = append(order, seq)
			if appendSplits && s.splits != splits {
				t.Fatalf("op %d: an append split a range", k)
			}
		}
		ids = append(ids, id)
		if end == nil && len(s.idless) == 1 {
			for _, ri := range s.idless {
				end = ri
			}
		}
		if end != nil && (s.idless[end.id] != end || end.toks != 1) {
			t.Fatalf("op %d: the root's end token left its range", k)
		}
		for ri, v := range before {
			if ri.toks != v[0] && ri.version == uint32(v[1]) {
				t.Fatalf("op %d: %v changed from %d tokens to %d under the same version", k, ri, v[0], ri.toks)
			}
		}
	}

	var want strings.Builder
	want.WriteString("<purchase-orders>")
	for _, seq := range order {
		want.WriteString(xml[seq])
	}
	want.WriteString("</purchase-orders>")
	if got, err := s.XMLString(); err != nil || got != want.String() {
		t.Fatalf("the document differs from the orders as placed (err %v)", err)
	}
	for seq, id := range ids {
		toks, err := s.NodeTokens(id)
		if err != nil {
			t.Fatalf("order %d (id %d): %v", seq, id, err)
		}
		if got, _ := xmltok.ToString(toks); got != xml[seq] {
			t.Fatalf("order %d (id %d) reads back as %.60q", seq, id, got)
		}
	}
	if max := cfg.MaxRangeTokens; max > 0 {
		for ri := range rangeVersions(s) {
			if ri.toks > max {
				t.Fatalf("%v holds %d tokens, more than MaxRangeTokens %d", ri, ri.toks, max)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

// rangeVersions maps every live range to its token count and version.
func rangeVersions(s *Store) map[*rangeInfo][2]int {
	m := make(map[*rangeInfo][2]int, s.rindex.Len()+len(s.idless))
	s.rindex.AscendAll(func(_ uint64, ri *rangeInfo) bool {
		m[ri] = [2]int{ri.toks, int(ri.version)}
		return true
	})
	for _, ri := range s.idless {
		m[ri] = [2]int{ri.toks, int(ri.version)}
	}
	return m
}

// TestCoarsenIngestShape: on ingest's shape the appends between two middle
// inserts take consecutive ids, so where the page fills they merge into one
// range, and the store holds about one range per middle insert and one per
// run of appends — a floor of 0.5 per insert — besides the split tails.
// Without the merge it holds one per insert besides them.
func TestCoarsenIngestShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ops  int
	}{
		{"range+partial", Config{Mode: RangePartial, PartialCapacity: 256}, 4000},
		{"full", Config{Mode: FullIndex}, 1200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const base = 200
			ops := tc.ops
			st := coarsenReplay(t, tc.cfg, base, ops, func(r *rand.Rand, _ int) int { return r.Intn(base) })
			perInsert := float64(st.Ranges-int(st.Splits)) / float64(ops)
			t.Logf("%d ranges (%.3f per insert), %d merges, %d splits, %d B of range table",
				st.Ranges, float64(st.Ranges)/float64(ops), st.Merges, st.Splits, st.RangeIndexBytes)
			if perInsert > 0.55 {
				t.Errorf("%.3f ranges per insert besides the split tails, want <= 0.55", perInsert)
			}
		})
	}
}

// TestCoarsenKeepsTheInsertionPoint: on small pages, orders inserted after
// an earlier order — half the time one of the last few appended, on the page
// the appends fill, whose successor holds the next ids — land where they were
// put, though the page they go to is full of ranges that merge: a merge never
// spans the insertion point, never takes the root's id-less end, and a
// MaxRangeTokens bound holds for merged ranges too.
func TestCoarsenKeepsTheInsertionPoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"range+partial", Config{Mode: RangePartial, PartialCapacity: 64, PageSize: 2048, PoolPages: 16}},
		{"max-range-tokens", Config{Mode: RangeOnly, MaxRangeTokens: 150, PageSize: 2048, PoolPages: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := coarsenReplay(t, tc.cfg, 0, 1000, func(r *rand.Rand, placed int) int {
				if r.Intn(2) == 0 { // one of the last few: on the page the appends fill
					return placed - 1 - r.Intn(min(placed, 16))
				}
				return r.Intn(placed)
			})
			t.Logf("%d ranges, %d merges, %d splits", st.Ranges, st.Merges, st.Splits)
			if st.Merges == 0 {
				t.Fatal("nothing merged")
			}
		})
	}
}

package core

import (
	"math/rand"
	"path/filepath"
	"repro/internal/btree"
	"runtime"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/token"
	"repro/internal/workload"
)

// TestRangeTableBytesPerRange pins what one more range costs in memory. The
// live-range table keeps a rangeInfo and a range-index slot per range and
// nothing keyed by record location, so 50 000 appended ranges must cost at
// most 72 heap bytes each (one map by record location beside it costs ≈90),
// and Stats.RangeIndexBytes, computed from structure sizes, must agree with
// the heap within 25 %. The store is file-backed and fills its pool first, so
// the pool's frames are not in the difference.
func TestRangeTableBytesPerRange(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is in the heap figures")
	}
	const pageSize, poolPages, ranges = 4096, 16, 50000
	pager, err := pagestore.OpenFilePager(filepath.Join(t.TempDir(), "s.db"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Config{PageSize: pageSize, PoolPages: poolPages, Pager: pager})
	o := frag(`<o/>`)
	appendRanges := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Append(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRanges(5000) // ≈40 pages of records: more than the pool holds
	if n := s.pool.Resident(); n != poolPages {
		t.Fatalf("%d frames resident after the warm-up, want the pool's %d", n, poolPages)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	appendRanges(ranges)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRange := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / ranges
	st := s.Stats()
	if st.Ranges != 5000+ranges {
		t.Fatalf("%d ranges, want %d", st.Ranges, 5000+ranges)
	}
	accounted := float64(st.RangeIndexBytes) / float64(st.Ranges)
	t.Logf("heap %.1f B/range, RangeIndexBytes %.1f B/range", perRange, accounted)
	if perRange > 72 {
		t.Errorf("one more range costs %.1f heap bytes, want at most 72", perRange)
	}
	if accounted < perRange*0.75 || accounted > perRange*1.25 {
		t.Errorf("RangeIndexBytes says %.1f B/range, the heap %.1f: not within 25 %%", accounted, perRange)
	}
}

// TestSplitHeadWithoutIDsTurnsIdless splits a range right after an end tag, so
// the head keeps no node ids: it must leave the range index for the id-less
// map, where chain walks (reads, the invariant check) find it from its record
// header, and a reopen must find it there again.
func TestSplitHeadWithoutIDsTurnsIdless(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Mode: mode, PageSize: 512}
			s := openStore(t, cfg)
			if _, err := s.Append(frag(`<r><a><b/></a><c/></r>`)); err != nil { // r=1 a=2 b=3 c=4
				t.Fatal(err)
			}
			if _, err := s.InsertIntoLast(2, frag(`<x/>`)); err != nil { // tail </a><c/></r>
				t.Fatal(err)
			}
			if _, err := s.InsertAfter(2, frag(`<y/>`)); err != nil { // splits it after </a>
				t.Fatal(err)
			}
			check := func(s *Store, what string) Stats {
				t.Helper()
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				x, err := s.XMLString()
				if err != nil || x != `<r><a><b/><x/></a><y/><c/></r>` {
					t.Fatalf("%s: %q (%v)", what, x, err)
				}
				a, err := s.NodeXMLString(2)
				if err != nil || a != `<a><b/><x/></a>` {
					t.Fatalf("%s: node 2 is %q (%v)", what, a, err)
				}
				// <r><a><b/> | <x/> | </a> | <y/> | <c/></r>: one range without ids.
				st := s.Stats()
				if st.Ranges != 5 || st.RangeIndexEntries != 4 || len(s.idless) != 1 {
					t.Fatalf("%s: %d ranges, %d with ids, %d id-less; want 5, 4, 1", what, st.Ranges, st.RangeIndexEntries, len(s.idless))
				}
				return st
			}
			want := check(s, "after the split")
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s2, err := Reopen(cfg, s.pool.Pager(), s.MetaPage())
			if err != nil {
				t.Fatal(err)
			}
			if got := check(s2, "after a reopen"); got.RangeIndexBytes != want.RangeIndexBytes {
				t.Fatalf("RangeIndexBytes %d after a reopen, %d before", got.RangeIndexBytes, want.RangeIndexBytes)
			}
		})
	}
}

// TestRangeTableReopen replays ingest's pattern — a root loaded with coarse
// chunks of orders, then three orders appended to the root for every one
// inserted after a random base order — on a file-backed store, closes it and
// reopens it: the table must come back with the same ranges and no more
// bytes than it had.
func TestRangeTableReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	const pageSize = 4096
	cfg := Config{Mode: RangePartial, PageSize: pageSize, PoolPages: 16}
	pager, err := pagestore.OpenFilePager(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pager = pager
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestReplay(t, s, 1, 2000)
	want, wantTree := s.Stats(), s.rindex.Bytes()
	meta := s.MetaPage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if pager, err = pagestore.OpenFilePager(path, pageSize); err != nil {
		t.Fatal(err)
	}
	cfg.Pager = pager
	s, err = Reopen(cfg, pager, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, gotTree := s.Stats(), s.rindex.Bytes()
	t.Logf("ranges %d (%d with ids), RangeIndexBytes %d before close, %d after reopen; the tree %d, %d",
		want.Ranges, want.RangeIndexEntries, want.RangeIndexBytes, got.RangeIndexBytes, wantTree, gotTree)
	if got.Ranges != want.Ranges || got.RangeIndexEntries != want.RangeIndexEntries {
		t.Fatalf("%d ranges (%d with ids) after a reopen, %d (%d) before", got.Ranges, got.RangeIndexEntries, want.Ranges, want.RangeIndexEntries)
	}
	if got.RangeIndexBytes > want.RangeIndexBytes {
		t.Fatalf("RangeIndexBytes %d after a reopen, %d before", got.RangeIndexBytes, want.RangeIndexBytes)
	}
	// The reopen builds the tree in key order, full leaves: the live tree
	// must already be within 1 % of that.
	if 100*gotTree < 99*wantTree {
		t.Fatalf("the Range Index shrank from %d to %d bytes in a reopen: the live tree holds half-empty leaves", wantTree, gotTree)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeIndexStaysDense replays ingest's mix — three orders appended for
// every one inserted after a random base order — long enough that the
// split tails' start ids, which land in the middle of the key space, have
// filled the Range Index's middle leaves many times over. The tree must
// hold at most 1 % more bytes than the same ranges entered in key order,
// full leaves, as a reopen enters them — not the half-full leaves 50/50
// splits leave behind.
func TestRangeIndexStaysDense(t *testing.T) {
	s, err := Open(Config{Mode: RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestReplay(t, s, 7101, 8000)
	packed := btree.New[*rangeInfo]()
	s.rindex.AscendAll(func(k uint64, ri *rangeInfo) bool {
		packed.Set(k, ri)
		return true
	})
	live, floor, n := s.rindex.Bytes(), packed.Bytes(), int64(s.rindex.Len())
	t.Logf("%d ranges with ids: %.2f B per range live, %.2f in key order", n, float64(live)/float64(n), float64(floor)/float64(n))
	if 100*live > 101*floor {
		t.Fatalf("the Range Index holds %d bytes, %d in key order: its leaves are not kept full", live, floor)
	}
}

// ingestReplay is the benchmark's ingest workload in process, one writer:
// the root, 1 000 base orders in chunks of 200, then ops single-order inserts,
// every fourth after a random base order and the rest last in the root.
func ingestReplay(t testing.TB, s *Store, seed int64, ops int) {
	gen := workload.New(seed)
	rng := rand.New(rand.NewSource(seed))
	root, err := s.Append(frag(`<purchase-orders/>`))
	if err != nil {
		t.Fatal(err)
	}
	var base []NodeID
	seq := 0
	for chunk := 0; chunk < 5; chunk++ {
		var toks []Token
		var sizes []int
		for i := 0; i < 200; i++ {
			order := gen.PurchaseOrder(seq)
			seq++
			toks = append(toks, order...)
			sizes = append(sizes, token.NodeCount(order))
		}
		id, err := s.InsertIntoLast(root, toks)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			base = append(base, id)
			id += NodeID(n)
		}
	}
	for k := 0; k < ops; k++ {
		order := gen.PurchaseOrder(seq)
		seq++
		if k%4 == 3 {
			_, err = s.InsertAfter(base[rng.Intn(len(base))], order)
		} else {
			_, err = s.InsertIntoLast(root, order)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRangeTableAppend appends 100 000 one-element ranges to an
// in-memory store per op and reports what each costs the live-range table
// (B/range, from Stats.RangeIndexBytes) beside the time per op.
func BenchmarkRangeTableAppend(b *testing.B) {
	const ranges = 100000
	o := frag(`<o/>`)
	var perRange float64
	for i := 0; i < b.N; i++ {
		s, err := Open(Config{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < ranges; j++ {
			if _, err := s.Append(o); err != nil {
				b.Fatal(err)
			}
		}
		st := s.Stats()
		perRange = float64(st.RangeIndexBytes) / float64(st.Ranges)
		s.Close()
	}
	b.ReportMetric(perRange, "B/range")
}

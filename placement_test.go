package axml_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	axml "repro"
	"repro/internal/workload"
)

// placementReplay loads orders purchase orders in 200-order chunks, one
// commit each, then commits inserts single orders, each placed by where
// (after false: appended to the root) among the loaded orders' ids, and
// returns the store's space report.
func placementReplay(t *testing.T, s *axml.Store, orders, inserts int, where func(ids []axml.NodeID) (id axml.NodeID, after bool)) axml.Space {
	t.Helper()
	gen := workload.New(4001)
	root, err := axml.LoadXMLString(s, "<purchase-orders/>")
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 200
	for lo := 0; lo < orders; lo += chunk {
		var frag []axml.Token
		for i := lo; i < lo+chunk; i++ {
			frag = append(frag, gen.PurchaseOrder(i)...)
		}
		if _, err := s.InsertIntoLast(root, frag); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := axml.Query(s, "/purchase-orders/purchase-order")
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	for k := 0; k < inserts; k++ {
		frag := gen.PurchaseOrder(orders + k)
		if id, after := where(ids); after {
			_, err = s.InsertAfter(id, frag)
		} else {
			_, err = s.InsertIntoLast(root, frag)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	sp, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	st.Placement.Moves -= before.Placement.Moves
	st.WALCommits -= before.WALCommits
	st.WALLoggedBytes -= before.WALLoggedBytes
	t.Logf("%d data pages, fill %.3f; %d page splits, %d shifts, %.2f records moved per insert; %d logged bytes per commit",
		sp.DataPages, sp.DataFill(), st.Placement.Splits, st.Placement.Shifts,
		float64(st.Placement.Moves)/float64(inserts), st.WALLoggedBytes/max(st.WALCommits, 1))
	return sp
}

// TestIngestShapeKeepsPagesFull replays the ingest benchmark's shape in
// process — a journaled file store with 8 KiB pages, 5 000 orders, then
// 2 000 single-order commits of which one in four goes after a uniformly
// chosen order — and holds the record layer to what handing a full page's
// tail to the next page buys there: 210 data pages at fill 0.744 (212 at
// 0.749 before appended ranges merged where their page filled). Cutting a
// page for every tail instead ends the same replay with 242 at fill 0.656
// (242–255 at 0.63–0.66 over five seeds, against 212–225 at 0.71–0.75).
func TestIngestShapeKeepsPagesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 fsynced commits")
	}
	s, err := axml.OpenFileWAL(filepath.Join(t.TempDir(), "ingest.db"), axml.Config{Mode: axml.RangePartial}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(4001))
	k := 0
	sp := placementReplay(t, s, 5000, 2000, func(ids []axml.NodeID) (axml.NodeID, bool) {
		k++
		return ids[r.Intn(len(ids))], k%4 == 0
	})
	if sp.DataPages > 230 {
		t.Errorf("%d data pages, want <= 230", sp.DataPages)
	}
	if f := sp.DataFill(); f < 0.70 {
		t.Errorf("data-page fill %.3f, want >= 0.70", f)
	}
}

// TestServeMixedShapeKeepsPagesFull replays serve-mixed's writes: 20 000
// orders, then 4 000 orders each inserted after a Zipf(1.2)-chosen one, so
// the hot orders take insert after insert. Cutting a page for every full
// page's tail leaves the hot spots in one-record pages (877 data pages at
// fill 0.467 in this replay); handing it to the next page keeps them full
// (593 at 0.691).
func TestServeMixedShapeKeepsPagesFull(t *testing.T) {
	s, err := axml.Open(axml.Config{Mode: axml.RangePartial})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(4002))
	perm := r.Perm(20000)
	z := rand.NewZipf(r, 1.2, 1, uint64(len(perm)-1))
	sp := placementReplay(t, s, 20000, 4000, func(ids []axml.NodeID) (axml.NodeID, bool) {
		return ids[perm[z.Uint64()]], true
	})
	if sp.DataPages > 700 {
		t.Errorf("%d data pages, want <= 700", sp.DataPages)
	}
	if f := sp.DataFill(); f < 0.65 {
		t.Errorf("data-page fill %.3f, want >= 0.65", f)
	}
}

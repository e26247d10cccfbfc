package axml_test

import (
	"path/filepath"
	"runtime"
	"testing"

	axml "repro"
	"repro/internal/workload"
	"repro/internal/xmltok"
)

// TestInsertAllocatesWhatItKeeps pins what a single-order insert allocates
// on the ingest benchmark's path, in process: parse into a reused token
// slice, insert, Flush, on a journaled file store of 5 000 orders that 2 000
// mixed inserts have already cut into inline ranges. What the store keeps —
// a range-table entry, B+tree growth, a new page and its frame — is all
// that is left: about 0.5 KB per appended order and 1.7 KB per middle
// insert (which splits a range), against 7.2 KB and 13.5 KB when every
// layer encoded into fresh buffers.
func TestInsertAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own, and sync.Pool drops items under it")
	}
	s, err := axml.OpenFileWAL(filepath.Join(t.TempDir(), "ingest.db"), axml.Config{Mode: axml.RangePartial}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := workload.New(4001)
	root, err := axml.LoadXMLString(s, "<purchase-orders/>")
	if err != nil {
		t.Fatal(err)
	}
	const orders, chunk = 5000, 200
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
	var toks []axml.Token
	seq := orders
	insert := func(mid bool, k int) {
		xml, err := xmltok.ToString(gen.PurchaseOrder(seq))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if toks, err = xmltok.AppendFragment(toks[:0], xml, xmltok.ParseOptions{}); err != nil {
			t.Fatal(err)
		}
		if mid {
			_, err = s.InsertAfter(ids[(k*7919)%len(ids)], toks)
		} else {
			_, err = s.InsertIntoLast(root, toks)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2000; k++ {
		insert(k%4 == 3, k)
	}
	const n = 200
	for _, c := range []struct {
		mid   bool
		bound uint64
	}{{false, 1 << 10}, {true, 3 << 10}} {
		// The orders' XML is rendered outside the count: it stands for the
		// request a server reads.
		xmls := make([]string, n)
		for i := range xmls {
			if xmls[i], err = xmltok.ToString(gen.PurchaseOrder(seq + i)); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k, xml := range xmls {
			if toks, err = xmltok.AppendFragment(toks[:0], xml, xmltok.ParseOptions{}); err != nil {
				t.Fatal(err)
			}
			if c.mid {
				_, err = s.InsertAfter(ids[(k*7919)%len(ids)], toks)
			} else {
				_, err = s.InsertIntoLast(root, toks)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		seq += n
		perOp := (m1.TotalAlloc - m0.TotalAlloc) / n
		t.Logf("middle insert %v: %d B and %.1f allocations per insert", c.mid, perOp, float64(m1.Mallocs-m0.Mallocs)/n)
		if perOp > c.bound {
			t.Errorf("middle insert %v: %d bytes allocated per insert, want <= %d", c.mid, perOp, c.bound)
		}
	}
}

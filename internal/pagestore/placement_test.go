package pagestore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestRecordStoreFillUnderMiddleInserts inserts records after random live
// records, the pattern that leaves one-record pages behind when every full
// page cuts a new one: a page's tail goes to the head of the next page
// whenever that page has room, so the data pages stay well filled.
func TestRecordStoreFillUnderMiddleInserts(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	rs := newRecordStore(t, 8192, 1024)
	record := func() []byte { return make([]byte, 100+r.Intn(201)) }
	first, _, err := rs.InsertLast(record())
	if err != nil {
		t.Fatal(err)
	}
	locs := []Loc{first}
	index := map[Loc]int{first: 0}
	for i := 0; i < 20000; i++ {
		loc, moves, err := rs.InsertAfter(locs[r.Intn(len(locs))], record())
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		for _, m := range moves {
			k := index[m.From]
			delete(index, m.From)
			locs[k], index[m.To] = m.To, k
		}
		index[loc] = len(locs)
		locs = append(locs, loc)
	}
	if err := rs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sp, err := InspectSpace(rs.pool, rs.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	st := rs.PlaceStats()
	t.Logf("%d data pages, fill %.3f; %d splits, %d shifts, %d moves", sp.DataPages, sp.DataFill(), st.Splits, st.Shifts, st.Moves)
	if f := sp.DataFill(); f < 0.58 {
		t.Errorf("data-page fill %.3f after 20 000 middle inserts, want >= 0.58", f)
	}
	if sp.FreePages != 0 || sp.OverflowPages != 0 {
		t.Errorf("%d free and %d overflow pages, want none", sp.FreePages, sp.OverflowPages)
	}
}

// TestRecordStoreShiftFillsNextPage pins the rule on one page pair: a full
// page hands the records after the insertion point to the head of its
// roomy successor rather than cutting a page, and reports every relocation.
func TestRecordStoreShiftFillsNextPage(t *testing.T) {
	rs := newRecordStore(t, 512, 16)
	var locs []Loc
	for i := 0; i < 5; i++ { // four fill the first page, the fifth starts a second
		loc, moves, err := rs.InsertLast(bytes.Repeat([]byte{byte('a' + i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) != 0 {
			t.Fatalf("append %d moved records: %v", i, moves)
		}
		locs = append(locs, loc)
	}
	if locs[4].Page == locs[0].Page {
		t.Fatalf("fifth record on the first page: %v", locs)
	}
	before, _ := rs.DataPages()
	loc, moves, err := rs.InsertAfter(locs[0], bytes.Repeat([]byte("x"), 100))
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := rs.DataPages(); after != before {
		t.Errorf("data pages %d -> %d, want the tail shifted, not a page cut", before, after)
	}
	if loc.Page != locs[0].Page || len(moves) != 3 {
		t.Fatalf("new record at %v with %d moves, want on page %d with the 3-record tail moved", loc, len(moves), locs[0].Page)
	}
	for i, m := range moves {
		if m.From != locs[i+1] || m.To.Page != locs[4].Page {
			t.Errorf("move %d = %v, want from %v to page %d", i, m, locs[i+1], locs[4].Page)
		}
	}
	got := collect(t, rs)
	want := []byte("axbcde")
	for i, rec := range got {
		if rec[0] != want[i] {
			t.Errorf("record %d starts %q, want %q", i, rec[0], want[i])
		}
	}
	if st := rs.PlaceStats(); st.Shifts != 1 || st.Splits != 1 || st.Moves != 3 {
		t.Errorf("placement %+v, want 1 shift, 1 split (the fifth append), 3 moves", st)
	}
	if err := rs.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// FuzzRecordStore runs random placements against a slice model: every op
// kind, payloads of 1 B to 10 KB (inline and spilled) on 512-byte and 8 KiB
// pages. Every reported move is applied to the model; after each op the
// store's invariants hold and every model location reads back its payload.
func FuzzRecordStore(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 200, 1, 1, 0, 0, 120, 2, 1, 0, 0, 250, 3, 2, 0, 1, 40, 4, 0, 0, 0, 10})
	f.Add(bytes.Repeat([]byte{1, 3, 0, 0, 180}, 60))
	f.Add(bytes.Repeat([]byte{1, 0, 7, 1, 100, 0, 0, 0, 0, 90, 5, 0, 3, 0, 255, 2, 0, 1, 0, 60}, 20))
	f.Add(append([]byte{0x80}, bytes.Repeat([]byte{1, 2, 0, 0x1f, 0xff, 4, 1, 0, 0x27, 0x10, 5, 0, 2}, 25)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		pageSize := 512
		if len(in) > 0 && in[0]&0x80 != 0 {
			pageSize = 8192
		}
		rs := newRecordStore(t, pageSize, 16)
		type rec struct {
			loc  Loc
			data []byte
		}
		var model []rec
		remap := func(moves []Move) {
			for _, m := range moves {
				for j := range model {
					if model[j].loc == m.From {
						model[j].loc = m.To
					}
				}
			}
		}
		for step := 0; len(in) >= 5 && step < 64; step++ {
			op, at := in[0]%6, int(binary.LittleEndian.Uint16(in[1:]))
			size := 1 + int(binary.LittleEndian.Uint16(in[3:]))%10240
			in = in[5:]
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(step*31 + i)
			}
			if len(model) == 0 {
				op = 0
			}
			var i int
			var loc Loc
			var moves []Move
			var err error
			switch op {
			case 0: // append
				i = len(model)
				loc, moves, err = rs.InsertLast(data)
			case 1: // after model[i-1], i in [1, len]
				i = 1 + at%len(model)
				loc, moves, err = rs.InsertAfter(model[i-1].loc, data)
			case 2: // before model[i]
				i = at % len(model)
				loc, moves, err = rs.InsertBefore(model[i].loc, data)
			case 3:
				i = 0
				loc, moves, err = rs.InsertFirst(data)
			case 4: // update, growing or shrinking
				i = at % len(model)
				was := model[i].loc
				model[i].loc = NilLoc
				if loc, moves, err = rs.Update(was, data); err != nil {
					t.Fatalf("step %d: update %v: %v", step, was, err)
				}
				remap(moves)
				model[i] = rec{loc, data}
			case 5:
				i = at % len(model)
				if err := rs.Delete(model[i].loc); err != nil {
					t.Fatalf("step %d: delete %v: %v", step, model[i].loc, err)
				}
				model = append(model[:i], model[i+1:]...)
			}
			if err != nil {
				t.Fatalf("step %d: op %d: %v", step, op, err)
			}
			if op < 4 {
				remap(moves)
				model = append(model[:i], append([]rec{{loc, data}}, model[i:]...)...)
			}
			if err := rs.CheckInvariants(); err != nil {
				t.Fatalf("step %d: op %d: %v", step, op, err)
			}
			for j, m := range model {
				got, err := rs.Read(m.loc)
				if err != nil || !bytes.Equal(got, m.data) {
					t.Fatalf("step %d: op %d: record %d at %v: %v, %d bytes, want %d", step, op, j, m.loc, err, len(got), len(m.data))
				}
			}
		}
		got := collect(t, rs)
		if len(got) != len(model) {
			t.Fatalf("scan finds %d records, model has %d", len(got), len(model))
		}
		for j := range model {
			if !bytes.Equal(got[j], model[j].data) {
				t.Fatalf("record %d out of order", j)
			}
		}
		if n := rs.pool.PinnedCount(); n != 0 {
			t.Fatalf("%d frames left pinned", n)
		}
	})
}

package pagestore

import (
	"bytes"
	"math/rand"
	"testing"
)

func newPage(size int) slotPage {
	b := make([]byte, size)
	initDataPage(b)
	return slotPage(b)
}

func TestSlottedInsertOrder(t *testing.T) {
	p := newPage(1024)
	a := p.insertAfter(nilSlot, []byte("A"))
	b := p.insertAfter(a, []byte("B"))
	c := p.insertAfter(b, []byte("C"))
	if a == nilSlot || b == nilSlot || c == nilSlot {
		t.Fatal("insert failed")
	}
	order := p.slotsInOrder()
	if len(order) != 3 || order[0] != a || order[1] != b || order[2] != c {
		t.Fatalf("order = %v", order)
	}
	if p.nlive() != 3 {
		t.Fatalf("nlive = %d", p.nlive())
	}
	if string(p.payload(b)) != "B" {
		t.Fatalf("payload(b) = %q", p.payload(b))
	}
}

func TestSlottedInsertHeadAndMiddle(t *testing.T) {
	p := newPage(1024)
	b := p.insertAfter(nilSlot, []byte("B"))
	a := p.insertAfter(nilSlot, []byte("A")) // new head
	c := p.insertAfter(b, []byte("C"))
	m := p.insertAfter(a, []byte("M")) // between A and B
	got := p.slotsInOrder()
	want := []uint16{a, m, b, c}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if p.firstSlot() != a || p.lastSlot() != c {
		t.Fatalf("first/last = %d/%d", p.firstSlot(), p.lastSlot())
	}
}

func TestSlottedDelete(t *testing.T) {
	p := newPage(1024)
	a := p.insertAfter(nilSlot, []byte("A"))
	b := p.insertAfter(a, []byte("B"))
	c := p.insertAfter(b, []byte("C"))
	p.deleteSlot(b)
	got := p.slotsInOrder()
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("order after delete = %v", got)
	}
	if p.live(b) {
		t.Error("deleted slot still live")
	}
	// Slot id is recycled.
	d := p.insertAfter(c, []byte("D"))
	if d != b {
		t.Errorf("expected slot reuse: got %d, want %d", d, b)
	}
	// Delete head and tail.
	p.deleteSlot(a)
	if p.firstSlot() != c {
		t.Error("head delete broken")
	}
	p.deleteSlot(d)
	if p.lastSlot() != c {
		t.Error("tail delete broken")
	}
	p.deleteSlot(c)
	if p.nlive() != 0 || p.firstSlot() != nilSlot || p.lastSlot() != nilSlot {
		t.Error("page should be empty")
	}
}

func TestSlottedCompact(t *testing.T) {
	p := newPage(512)
	var slots []uint16
	payload := bytes.Repeat([]byte("x"), 40)
	for {
		s := p.insertAfter(p.lastSlot(), payload)
		if s == nilSlot {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 5 {
		t.Fatalf("only %d inserts fit", len(slots))
	}
	// Delete every other record, then compaction should make room again.
	for i := 0; i < len(slots); i += 2 {
		p.deleteSlot(slots[i])
	}
	before := p.heapStart()
	p.compact()
	after := p.heapStart()
	if after <= before {
		t.Errorf("compaction did not reclaim space: %d -> %d", before, after)
	}
	// Surviving payloads intact, order preserved.
	for i := 1; i < len(slots); i += 2 {
		if !bytes.Equal(p.payload(slots[i]), payload) {
			t.Errorf("slot %d payload corrupted", slots[i])
		}
	}
}

func TestSlottedUpdateInPlace(t *testing.T) {
	p := newPage(512)
	s := p.insertAfter(nilSlot, []byte("hello"))
	// Shrink.
	if !p.updateInPlace(s, []byte("hi")) {
		t.Fatal("shrink should succeed")
	}
	if string(p.payload(s)) != "hi" {
		t.Fatalf("payload = %q", p.payload(s))
	}
	// Grow within free space.
	if !p.updateInPlace(s, []byte("a longer payload")) {
		t.Fatal("grow should succeed")
	}
	if string(p.payload(s)) != "a longer payload" {
		t.Fatalf("payload = %q", p.payload(s))
	}
	// Grow beyond page capacity fails.
	big := bytes.Repeat([]byte("z"), 1000)
	if p.updateInPlace(s, big) {
		t.Fatal("oversize grow should fail")
	}
}

func TestSlottedUpdateGrowTriggersCompact(t *testing.T) {
	p := newPage(512)
	a := p.insertAfter(nilSlot, bytes.Repeat([]byte("a"), 150))
	b := p.insertAfter(a, bytes.Repeat([]byte("b"), 150))
	c := p.insertAfter(b, bytes.Repeat([]byte("c"), 100))
	_ = c
	p.deleteSlot(a) // heap hole at the far end
	// Growing c needs the hole; only compaction exposes it.
	if !p.updateInPlace(c, bytes.Repeat([]byte("C"), 200)) {
		t.Fatal("grow with compaction should succeed")
	}
	if !bytes.Equal(p.payload(b), bytes.Repeat([]byte("b"), 150)) {
		t.Error("unrelated record corrupted by compaction")
	}
}

func TestSlottedFullPage(t *testing.T) {
	p := newPage(512)
	n := 0
	for {
		s := p.insertAfter(p.lastSlot(), []byte("0123456789"))
		if s == nilSlot {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("nothing fit")
	}
	// All records intact.
	count := 0
	for s := p.firstSlot(); s != nilSlot; s = p.slotNext(s) {
		if string(p.payload(s)) != "0123456789" {
			t.Fatal("payload corrupted")
		}
		count++
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestSlottedRandomizedOps(t *testing.T) {
	// Property test: random inserts/deletes mirrored against a reference
	// slice must always agree.
	r := rand.New(rand.NewSource(7))
	p := newPage(2048)
	type rec struct {
		slot uint16
		data []byte
	}
	var ref []rec
	for step := 0; step < 2000; step++ {
		if r.Intn(3) != 0 || len(ref) == 0 {
			data := make([]byte, 1+r.Intn(60))
			r.Read(data)
			pos := r.Intn(len(ref) + 1)
			after := uint16(nilSlot)
			if pos > 0 {
				after = ref[pos-1].slot
			}
			s := p.insertAfter(after, data)
			if s == nilSlot {
				// Maybe only fragmentation: compaction must help when the
				// live bytes plus the new record fit.
				p.compact()
				s = p.insertAfter(after, data)
			}
			if s == nilSlot {
				// Page genuinely full: delete something instead.
				if len(ref) == 0 {
					t.Fatal("empty page rejected insert")
				}
				i := r.Intn(len(ref))
				p.deleteSlot(ref[i].slot)
				ref = append(ref[:i], ref[i+1:]...)
				continue
			}
			ref = append(ref[:pos], append([]rec{{s, data}}, ref[pos:]...)...)
		} else {
			i := r.Intn(len(ref))
			p.deleteSlot(ref[i].slot)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if r.Intn(50) == 0 {
			p.compact()
		}
		// Verify.
		order := p.slotsInOrder()
		if len(order) != len(ref) {
			t.Fatalf("step %d: %d slots, want %d", step, len(order), len(ref))
		}
		for i, s := range order {
			if s != ref[i].slot || !bytes.Equal(p.payload(s), ref[i].data) {
				t.Fatalf("step %d: mismatch at %d", step, i)
			}
		}
		if p.nlive() != len(ref) {
			t.Fatalf("step %d: nlive = %d, want %d", step, p.nlive(), len(ref))
		}
	}
}

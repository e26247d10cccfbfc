package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/token"
	"repro/internal/xmltok"
)

// flatNames is a document of n empty elements under one root: every token
// but the end tokens carries a name, none a value.
func flatNames(n int) []Token {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < n; i++ {
		b.WriteString("<item/>")
	}
	b.WriteString("</root>")
	return xmltok.MustParse(b.String())
}

// TestNamesByID: a store writes each name once, in its dictionary, and its
// tokens by id; the ids take one byte each here.
func TestNamesByID(t *testing.T) {
	s := openStore(t, Config{})
	doc := flatNames(100)
	if _, err := s.Append(doc); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.NameIDs != 2 {
		t.Fatalf("NameIDs = %d, want 2 (root, item)", st.NameIDs)
	}
	// Every begin token is kind, type, one-byte id; every end token kind, type.
	if want := uint64(3*101 + 2*101); st.Bytes != want {
		t.Fatalf("%d encoded bytes, want %d", st.Bytes, want)
	}
	toks, err := s.Tokens()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(toks) != fmt.Sprint(doc) {
		t.Fatal("the document does not read back")
	}
}

// TestNameDecodeAllocatesNothing: decoding a name by id hands out the
// dictionary's interned string, so a scan's allocations do not grow with the
// named tokens it decodes (the inline form allocates one string per name).
func TestNameDecodeAllocatesNothing(t *testing.T) {
	s := openStore(t, Config{})
	if _, err := s.Append(flatNames(1000)); err != nil {
		t.Fatal(err)
	}
	named := 0
	count := func(it Item) bool {
		if it.Tok.Name != "" {
			named++
		}
		return true
	}
	scan := testing.AllocsPerRun(20, func() {
		if err := s.Scan(count); err != nil {
			t.Fatal(err)
		}
	})
	node := testing.AllocsPerRun(20, func() {
		if err := s.ScanNode(1, count); err != nil {
			t.Fatal(err)
		}
	})
	if named == 0 {
		t.Fatal("the scans decoded no names")
	}
	// A handful for the operation itself; 1 001 decoded names each.
	if scan > 4 || node > 4 {
		t.Fatalf("Scan allocates %.0f, ScanNode %.0f per call over 1 001 names; a name should cost none", scan, node)
	}
}

// TestUnknownNameIDDegrades: bytes naming an id the dictionary does not hold
// are corruption. Every read that meets one fails with ErrUnknownName — no
// panic — and the store latches read-only, as on a checksum failure.
func TestUnknownNameIDDegrades(t *testing.T) {
	s := openStore(t, Config{})
	if _, err := s.Append(figure1()); err != nil {
		t.Fatal(err)
	}
	if err := s.dict.Load(nil); err != nil { // the names are gone, the ids stay
		t.Fatal(err)
	}
	if err := s.Scan(func(Item) bool { return true }); !errors.Is(err, token.ErrUnknownName) {
		t.Fatalf("Scan: %v, want ErrUnknownName", err)
	}
	if ro, cause := s.ReadOnly(); !ro || !errors.Is(cause, token.ErrUnknownName) {
		t.Fatalf("ReadOnly() = %v, %v; want latched on ErrUnknownName", ro, cause)
	}
	if _, err := s.ReadNode(1); !errors.Is(err, token.ErrUnknownName) {
		t.Fatalf("ReadNode: %v, want ErrUnknownName", err)
	}
	if _, err := s.AppendNodeXML(context.Background(), nil, 1); !errors.Is(err, token.ErrUnknownName) {
		t.Fatalf("AppendNodeXML: %v, want ErrUnknownName", err)
	}
	if err := s.CheckInvariants(); !errors.Is(err, token.ErrUnknownName) {
		t.Fatalf("CheckInvariants: %v, want ErrUnknownName", err)
	}
	if _, err := s.Append(figure1()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Append on the latched store: %v, want ErrReadOnly", err)
	}
	if ErrCodeOf(token.ErrUnknownName) != CodeUnknownName {
		t.Fatal("ErrUnknownName has no wire code of its own")
	}
}

// TestInlineStoreTakesIDs: a store written with inline names only — by a
// nil dictionary, as every store was before names had ids — reopens and
// reads identically, then takes inserts whose names go by id beside the
// inline ones, and both survive the next reopen.
func TestInlineStoreTakesIDs(t *testing.T) {
	pager := pagestore.NewMemPager(512)
	s, err := Open(Config{PageSize: 512, Pager: pager})
	if err != nil {
		t.Fatal(err)
	}
	s.dict = nil // the inline codec
	if _, err := s.Append(xmltok.MustParse(`<ticket><hour>15</hour><name>Paul</name></ticket>`)); err != nil {
		t.Fatal(err)
	}
	want, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	meta := s.MetaPage()
	if err := s.Flush(); err != nil { // Close would close the pager too
		t.Fatal(err)
	}

	reopen := func() *Store {
		t.Helper()
		s, err := Reopen(Config{PageSize: 512}, pager, meta)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s = reopen()
	if user, err := s.recs.UserMeta(); err != nil || len(user) != allocStateSize {
		t.Fatalf("an inline store's meta blob is %d bytes (%v), want the %d allocator bytes", len(user), err, allocStateSize)
	}
	if got, err := s.XMLString(); err != nil || got != want {
		t.Fatalf("inline store reads %q (%v), want %q", got, err, want)
	}
	if _, err := s.InsertIntoLast(1, xmltok.MustParseFragment(`<note by="Ann">late</note>`)); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().NameIDs; n != 2 {
		t.Fatalf("NameIDs = %d after one insert, want 2 (note, by)", n)
	}
	want, err = s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s = reopen()
	defer s.Close()
	if got, err := s.XMLString(); err != nil || got != want {
		t.Fatalf("mixed store reads %q (%v), want %q", got, err, want)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDictionaryLimit: a name that would overflow the meta page stays
// inline, and the store neither fails nor loses it.
func TestDictionaryLimit(t *testing.T) {
	pager := pagestore.NewMemPager(pagestore.MinPageSize)
	s, err := Open(Config{PageSize: pagestore.MinPageSize, Pager: pager})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<name%03d/>", i)
	}
	b.WriteString("</r>")
	doc := xmltok.MustParse(b.String())
	if _, err := s.Append(doc); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().NameIDs; n == 0 || n >= 201 {
		t.Fatalf("NameIDs = %d: a %d-byte page holds some of 201 names, not all", n, pagestore.MinPageSize)
	}
	meta := s.MetaPage()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err = Reopen(Config{PageSize: pagestore.MinPageSize}, pager, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	toks, err := s.Tokens()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(toks) != fmt.Sprint(doc) {
		t.Fatal("the document does not read back")
	}
}

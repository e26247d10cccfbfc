// Entry-point tests: every gated Store method enters through readOp or
// writeOp, so each one must shed, refuse a closed store, refuse writes on a
// degraded store, and latch a checksum failure it meets — navigation
// included.
package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/xmltok"
)

// entryOp is one gated exported Store method, called on a store holding
// figure1 (ticket 1, hour 2, "15" 3, name 4, "Paul" 5).
type entryOp struct {
	name  string
	write bool
	call  func(s *Store) error
}

func entryOps() []entryOp {
	ctx := context.Background()
	frag := func() []Token { return xmltok.MustParseFragment(`<x/>`) }
	keep := func(Item) bool { return true }
	keepRaw := func(NodeID, []byte) bool { return true }
	read := func(name string, call func(s *Store) error) entryOp { return entryOp{name, false, call} }
	write := func(name string, call func(s *Store) error) entryOp { return entryOp{name, true, call} }
	drop := func(_ any, err error) error { return err }
	drop2 := func(_, _ any, err error) error { return err }
	return []entryOp{
		read("Scan", func(s *Store) error { return s.Scan(keep) }),
		read("ScanCtx", func(s *Store) error { return s.ScanCtx(ctx, keep) }),
		read("ScanRawCtx", func(s *Store) error { return s.ScanRawCtx(ctx, keepRaw) }),
		read("ScanNode", func(s *Store) error { return s.ScanNode(2, keep) }),
		read("ScanNodeCtx", func(s *Store) error { return s.ScanNodeCtx(ctx, 2, keep) }),
		read("ScanNodeRawCtx", func(s *Store) error { return s.ScanNodeRawCtx(ctx, 2, keepRaw) }),
		read("ReadAll", func(s *Store) error { return drop(s.ReadAll()) }),
		read("ReadAllCtx", func(s *Store) error { return drop(s.ReadAllCtx(ctx)) }),
		read("Tokens", func(s *Store) error { return drop(s.Tokens()) }),
		read("ReadNode", func(s *Store) error { return drop(s.ReadNode(2)) }),
		read("ReadNodeCtx", func(s *Store) error { return drop(s.ReadNodeCtx(ctx, 2)) }),
		read("NodeTokens", func(s *Store) error { return drop(s.NodeTokens(2)) }),
		read("FirstNodeID", func(s *Store) error { return drop2(s.FirstNodeID()) }),
		read("FirstNodeIDCtx", func(s *Store) error { return drop2(s.FirstNodeIDCtx(ctx)) }),
		read("WriteXML", func(s *Store) error { return s.WriteXML(io.Discard) }),
		read("XMLString", func(s *Store) error { return drop(s.XMLString()) }),
		read("AppendNodeXML", func(s *Store) error { return drop(s.AppendNodeXML(ctx, nil, 2)) }),
		read("NodeXMLString", func(s *Store) error { return drop(s.NodeXMLString(2)) }),
		read("Parent", func(s *Store) error { return drop2(s.Parent(2)) }),
		read("ParentCtx", func(s *Store) error { return drop2(s.ParentCtx(ctx, 2)) }),
		read("FirstChild", func(s *Store) error { return drop2(s.FirstChild(1)) }),
		read("FirstChildCtx", func(s *Store) error { return drop2(s.FirstChildCtx(ctx, 1)) }),
		read("NextSibling", func(s *Store) error { return drop2(s.NextSibling(2)) }),
		read("NextSiblingCtx", func(s *Store) error { return drop2(s.NextSiblingCtx(ctx, 2)) }),
		read("PrevSibling", func(s *Store) error { return drop2(s.PrevSibling(4)) }),
		read("PrevSiblingCtx", func(s *Store) error { return drop2(s.PrevSiblingCtx(ctx, 4)) }),
		read("Attributes", func(s *Store) error { return drop(s.Attributes(1)) }),
		read("AttributesCtx", func(s *Store) error { return drop(s.AttributesCtx(ctx, 1)) }),
		read("Children", func(s *Store) error { return drop(s.Children(1)) }),
		read("ChildrenCtx", func(s *Store) error { return drop(s.ChildrenCtx(ctx, 1)) }),
		read("CompareDocOrder", func(s *Store) error { return drop(s.CompareDocOrder(2, 4)) }),
		read("CompareDocOrderCtx", func(s *Store) error { return drop(s.CompareDocOrderCtx(ctx, 2, 4)) }),
		read("Verify", func(s *Store) error { return s.Verify() }),
		read("Space", func(s *Store) error { return drop(s.Space()) }),

		write("Append", func(s *Store) error { return drop(s.Append(frag())) }),
		write("AppendCtx", func(s *Store) error { return drop(s.AppendCtx(ctx, frag())) }),
		write("AppendStream", func(s *Store) error {
			toks := frag()
			return drop(s.AppendStream(func() (Token, error) {
				if len(toks) == 0 {
					return Token{}, io.EOF
				}
				t := toks[0]
				toks = toks[1:]
				return t, nil
			}))
		}),
		write("Compact", func(s *Store) error { return drop(s.Compact(0)) }),
		write("InsertBefore", func(s *Store) error { return drop(s.InsertBefore(2, frag())) }),
		write("InsertBeforeCtx", func(s *Store) error { return drop(s.InsertBeforeCtx(ctx, 2, frag())) }),
		write("InsertAfter", func(s *Store) error { return drop(s.InsertAfter(2, frag())) }),
		write("InsertAfterCtx", func(s *Store) error { return drop(s.InsertAfterCtx(ctx, 2, frag())) }),
		write("InsertIntoFirst", func(s *Store) error { return drop(s.InsertIntoFirst(1, frag())) }),
		write("InsertIntoFirstCtx", func(s *Store) error { return drop(s.InsertIntoFirstCtx(ctx, 1, frag())) }),
		write("InsertIntoLast", func(s *Store) error { return drop(s.InsertIntoLast(1, frag())) }),
		write("InsertIntoLastCtx", func(s *Store) error { return drop(s.InsertIntoLastCtx(ctx, 1, frag())) }),
		write("DeleteNode", func(s *Store) error { return s.DeleteNode(2) }),
		write("DeleteNodeCtx", func(s *Store) error { return s.DeleteNodeCtx(ctx, 2) }),
		write("ReplaceNode", func(s *Store) error { return drop(s.ReplaceNode(2, frag())) }),
		write("ReplaceNodeCtx", func(s *Store) error { return drop(s.ReplaceNodeCtx(ctx, 2, frag())) }),
		write("ReplaceContent", func(s *Store) error { return drop(s.ReplaceContent(2, frag())) }),
		write("ReplaceContentCtx", func(s *Store) error { return drop(s.ReplaceContentCtx(ctx, 2, frag())) }),
		write("Update", func(s *Store) error {
			return s.Update(ctx, func(b *Batch) error { return drop(b.InsertIntoLast(1, frag())) })
		}),
	}
}

// ungated are the exported Store methods that do not pass admission control:
// accessors, diagnostics, and lifecycle and maintenance calls that take the
// lock themselves.
var ungated = map[string]bool{
	"ArchiveDir": true, "BackupTo": true, "CheckInvariants": true, "Close": true, "Dict": true,
	"Exists": true, "Flush": true, "Generation": true, "Health": true,
	"MetaPage": true, "Mode": true, "OpContext": true, "PlanCache": true,
	"QueryCounters": true, "ReadOnly": true, "Repair": true, "Stats": true,
}

// TestEntryPointContract holds every gated exported method to the entry
// protocol: ErrClosed after Close, ErrOverloaded when the gate and its queue
// are full, and for mutators ErrReadOnly on a degraded store, where reads
// keep being served. A method added to Store must be listed here or in
// ungated.
func TestEntryPointContract(t *testing.T) {
	ops := entryOps()
	listed := map[string]bool{}
	for _, op := range ops {
		listed[op.name] = true
	}
	st := reflect.TypeOf((*Store)(nil))
	for i := 0; i < st.NumMethod(); i++ {
		if name := st.Method(i).Name; !listed[name] && !ungated[name] {
			t.Errorf("Store.%s is neither in the entry-point table nor ungated", name)
		}
	}

	closed := openStore(t, Config{})
	if _, err := closed.Append(figure1()); err != nil {
		t.Fatal(err)
	}
	closed.Close()

	full := openStore(t, Config{MaxConcurrentOps: 1, MaxQueuedOps: 1})
	if _, err := full.Append(figure1()); err != nil {
		t.Fatal(err)
	}
	release, parked := parkReader(t, full) // holds the only slot
	queued := make(chan error, 1)
	go func() { queued <- full.Scan(func(Item) bool { return false }) }() // takes the one queue seat
	waitFor(t, func() bool { return full.Stats().Admission.Waiting == 1 })

	for _, op := range ops {
		if err := op.call(closed); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed store: %v, want ErrClosed", op.name, err)
		}
		if err := op.call(full); !errors.Is(err, ErrOverloaded) {
			t.Errorf("%s with the gate and its queue full: %v, want ErrOverloaded", op.name, err)
		}
	}
	close(release)
	for _, done := range []chan error{parked, queued} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	for _, op := range ops {
		s := openStore(t, Config{})
		if _, err := s.Append(figure1()); err != nil {
			t.Fatal(err)
		}
		s.degrade(errors.New("test: latched"))
		err := op.call(s)
		switch {
		case op.write && !errors.Is(err, ErrReadOnly):
			t.Errorf("%s on a degraded store: %v, want ErrReadOnly", op.name, err)
		case !op.write && err != nil:
			t.Errorf("%s on a degraded store: %v, want it served", op.name, err)
		}
	}
}

// TestNavigationLatchesCorruption: a checksum failure that navigation meets
// degrades the store read-only, as it does for every other read (DESIGN §6).
// Each call runs on its own copy of a file-pager store whose first record
// page — where every node the calls name lives — is flipped on disk after
// the reopen has let it go from the pool.
func TestNavigationLatchesCorruption(t *testing.T) {
	const pageSize = 1024
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.db")
	pager, err := pagestore.OpenFilePager(clean, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Ranges of 16 tokens over a dozen pages: the reopen's scan leaves the
	// last few in a pool of four, not the first.
	s, err := Open(Config{PageSize: pageSize, Pager: pager, MaxRangeTokens: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(buildFlatDoc(300)); err != nil {
		t.Fatal(err)
	}
	head, _, err := s.firstRange()
	if err != nil {
		t.Fatal(err)
	}
	page, meta := head.loc.Page, s.MetaPage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Node 1 is <all>, 2 its first <rec>, 5 the second <rec>.
	for _, op := range []struct {
		name string
		call func(s *Store) error
	}{
		{"Parent", func(s *Store) error { _, _, err := s.Parent(2); return err }},
		{"FirstChild", func(s *Store) error { _, _, err := s.FirstChild(1); return err }},
		{"NextSibling", func(s *Store) error { _, _, err := s.NextSibling(2); return err }},
		{"Attributes", func(s *Store) error { _, err := s.Attributes(2); return err }},
		{"CompareDocOrder", func(s *Store) error { _, err := s.CompareDocOrder(2, 5); return err }},
		{"FirstNodeID", func(s *Store) error { _, _, err := s.FirstNodeID(); return err }},
	} {
		t.Run(op.name, func(t *testing.T) {
			path := filepath.Join(dir, op.name+".db")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			pager, err := pagestore.OpenFilePager(path, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Reopen(Config{PageSize: pageSize, PoolPages: 4}, pager, meta)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			flipByte(t, path, int64(page)*pageSize+pageSize/2)

			if err := op.call(s); !errors.Is(err, pagestore.ErrCorruptPage) {
				t.Fatalf("%s over a flipped page: %v, want ErrCorruptPage", op.name, err)
			}
			if !s.Health().Degraded {
				t.Fatalf("%s met a checksum failure and left the store writable", op.name)
			}
			if _, err := s.InsertIntoLast(1, xmltok.MustParseFragment(`<rec/>`)); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("insert after %s latched: %v, want ErrReadOnly", op.name, err)
			}
		})
	}
}

// flipByte inverts one byte of the file at path, beneath any open pager.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{^b[0]}, off); err != nil {
		t.Fatal(err)
	}
}

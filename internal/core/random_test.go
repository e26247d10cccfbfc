package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/token"
)

// randomFrag builds a small random well-formed fragment.
func randomFrag(r *rand.Rand) []Token {
	var out []Token
	names := []string{"a", "b", "item", "rec"}
	var build func(depth int)
	build = func(depth int) {
		switch r.Intn(5) {
		case 0, 1, 2: // element
			out = append(out, token.Elem(names[r.Intn(len(names))]))
			for a := 0; a < r.Intn(2); a++ {
				out = append(out, token.Attr("k", "v"), token.EndAttr())
			}
			if depth < 3 {
				for c := 0; c < r.Intn(3); c++ {
					build(depth + 1)
				}
			}
			out = append(out, token.EndElem())
		case 3:
			out = append(out, token.TextTok(fmt.Sprintf("t%d", r.Intn(100))))
		case 4:
			out = append(out, token.CommentTok("c"))
		}
	}
	for len(out) == 0 || r.Intn(3) == 0 {
		build(0)
	}
	return out
}

// TestRandomizedDifferential mirrors a long random operation sequence
// against the naive reference store under every index mode (and with
// coalescing enabled), comparing complete contents with regenerated ids
// after every operation and validating store invariants periodically.
func TestRandomizedDifferential(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"range-coarse", Config{Mode: RangeOnly, PageSize: 1024, PoolPages: 16}},
		{"range-granular", Config{Mode: RangeOnly, MaxRangeTokens: 8, PageSize: 1024, PoolPages: 16}},
		{"range+partial", Config{Mode: RangePartial, PartialCapacity: 32, PageSize: 1024, PoolPages: 16}},
		{"full", Config{Mode: FullIndex, PageSize: 1024, PoolPages: 16}},
		{"coalescing", Config{Mode: RangePartial, CoalesceBytes: 512, PageSize: 1024, PoolPages: 16}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1234))
			// A named pager so the store can be flushed and reopened at the
			// end of the run.
			pager := pagestore.NewMemPager(tc.cfg.PageSize)
			tc.cfg.Pager = pager
			s := openStore(t, tc.cfg)
			ref := newRefStore()

			seed := randomFrag(r)
			if _, err := s.Append(seed); err != nil {
				t.Fatal(err)
			}
			ref.append(seed)

			const steps = 400
			for step := 0; step < steps; step++ {
				ids := ref.nodeIDs()
				elems := ref.elementIDs()
				op := r.Intn(100)
				ctx := fmt.Sprintf("step %d op %d", step, op)
				switch {
				case op < 15 || len(ids) == 0: // append
					frag := randomFrag(r)
					if _, err := s.Append(frag); err != nil {
						t.Fatalf("%s append: %v", ctx, err)
					}
					ref.append(frag)
				case op < 30: // insertBefore
					id := ids[r.Intn(len(ids))]
					if ref.items[indexOf(t, ref, id)].Tok.Kind == token.BeginAttribute {
						continue
					}
					frag := randomFrag(r)
					if _, err := s.InsertBefore(id, frag); err != nil {
						t.Fatalf("%s insertBefore(%d): %v", ctx, id, err)
					}
					ref.insertBefore(id, frag)
				case op < 45: // insertAfter
					id := ids[r.Intn(len(ids))]
					if ref.items[indexOf(t, ref, id)].Tok.Kind == token.BeginAttribute {
						continue
					}
					frag := randomFrag(r)
					if _, err := s.InsertAfter(id, frag); err != nil {
						t.Fatalf("%s insertAfter(%d): %v", ctx, id, err)
					}
					ref.insertAfter(id, frag)
				case op < 55 && len(elems) > 0: // insertIntoFirst
					id := elems[r.Intn(len(elems))]
					frag := randomFrag(r)
					if _, err := s.InsertIntoFirst(id, frag); err != nil {
						t.Fatalf("%s insertIntoFirst(%d): %v", ctx, id, err)
					}
					ref.insertIntoFirst(id, frag)
				case op < 65 && len(elems) > 0: // insertIntoLast
					id := elems[r.Intn(len(elems))]
					frag := randomFrag(r)
					if _, err := s.InsertIntoLast(id, frag); err != nil {
						t.Fatalf("%s insertIntoLast(%d): %v", ctx, id, err)
					}
					ref.insertIntoLast(id, frag)
				case op < 75: // random subtree read (drives the lazy index)
					id := ids[r.Intn(len(ids))]
					items, err := s.ReadNode(id)
					if err != nil {
						t.Fatalf("%s readNode(%d): %v", ctx, id, err)
					}
					i := indexOf(t, ref, id)
					end := ref.subtreeEnd(i)
					if len(items) != end-i {
						t.Fatalf("%s readNode(%d): %d items, want %d", ctx, id, len(items), end-i)
					}
					for j := range items {
						if items[j] != ref.items[i+j] {
							t.Fatalf("%s readNode(%d): item %d = {%d %s}, want {%d %s}",
								ctx, id, j, items[j].ID, items[j].Tok, ref.items[i+j].ID, ref.items[i+j].Tok)
						}
					}
				case op < 85: // delete
					id := ids[r.Intn(len(ids))]
					if err := s.DeleteNode(id); err != nil {
						t.Fatalf("%s delete(%d): %v", ctx, id, err)
					}
					ref.deleteNode(id)
				case op < 93: // replaceNode
					id := ids[r.Intn(len(ids))]
					if ref.items[indexOf(t, ref, id)].Tok.Kind == token.BeginAttribute {
						continue
					}
					frag := randomFrag(r)
					if _, err := s.ReplaceNode(id, frag); err != nil {
						t.Fatalf("%s replaceNode(%d): %v", ctx, id, err)
					}
					ref.replaceNode(id, frag)
				default: // replaceContent
					if len(elems) == 0 {
						continue
					}
					id := elems[r.Intn(len(elems))]
					frag := randomFrag(r)
					if _, err := s.ReplaceContent(id, frag); err != nil {
						t.Fatalf("%s replaceContent(%d): %v", ctx, id, err)
					}
					ref.replaceContent(id, frag)
				}
				compareStores(t, s, ref, ctx)
				if step%40 == 0 {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Every live node remains individually addressable.
			for _, id := range ref.nodeIDs() {
				if !s.Exists(id) {
					t.Fatalf("node %d lost", id)
				}
			}
			t.Logf("final stats: %+v", s.Stats())

			// Flush and reopen from the pager: the rebuilt store must match
			// the reference exactly, and stay usable.
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s2, err := Reopen(tc.cfg, pager, s.MetaPage())
			if err != nil {
				t.Fatal(err)
			}
			compareStores(t, s2, ref, "after reopen")
			if err := s2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Append(randomFrag(r)); err != nil {
				t.Fatalf("append after reopen: %v", err)
			}
			if err := s2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func indexOf(t testing.TB, ref *refStore, id NodeID) int {
	t.Helper()
	i, err := ref.findBegin(id)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

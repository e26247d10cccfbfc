package core

import (
	"fmt"
	"testing"

	"repro/internal/token"
)

// refStore is a naive reference implementation of the store semantics: the
// whole instance as one token slice with explicit ids. The differential
// tests mirror every operation against it and compare full contents.
type refStore struct {
	items  []Item
	nextID NodeID
}

func newRefStore() *refStore { return &refStore{nextID: 1} }

func (r *refStore) assign(frag []Token) []Item {
	out := make([]Item, len(frag))
	for i, t := range frag {
		out[i] = Item{Tok: t}
		if t.StartsNode() {
			out[i].ID = r.nextID
			r.nextID++
		}
	}
	return out
}

func (r *refStore) findBegin(id NodeID) (int, error) {
	for i, it := range r.items {
		if it.ID == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ref: no node %d", id)
}

func (r *refStore) subtreeEnd(i int) int {
	if !r.items[i].Tok.IsBegin() {
		return i + 1
	}
	depth := 0
	for j := i; j < len(r.items); j++ {
		if r.items[j].Tok.IsBegin() {
			depth++
		} else if r.items[j].Tok.IsEnd() {
			depth--
			if depth == 0 {
				return j + 1
			}
		}
	}
	panic("ref: unbalanced")
}

func (r *refStore) spliceAt(pos int, frag []Token) {
	assigned := r.assign(frag)
	r.items = append(r.items[:pos], append(assigned, r.items[pos:]...)...)
}

func (r *refStore) append(frag []Token) {
	r.spliceAt(len(r.items), frag)
}

func (r *refStore) insertBefore(id NodeID, frag []Token) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	r.spliceAt(i, frag)
	return nil
}

func (r *refStore) insertAfter(id NodeID, frag []Token) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	r.spliceAt(r.subtreeEnd(i), frag)
	return nil
}

// skipAttrs returns the first index at or after i that is not part of an
// attribute block.
func (r *refStore) skipAttrs(i int) int {
	for i < len(r.items) && r.items[i].Tok.Kind == token.BeginAttribute {
		depth := 0
		for {
			if r.items[i].Tok.IsBegin() {
				depth++
			} else if r.items[i].Tok.IsEnd() {
				depth--
			}
			i++
			if depth == 0 {
				break
			}
		}
	}
	return i
}

func (r *refStore) insertIntoFirst(id NodeID, frag []Token) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	r.spliceAt(r.skipAttrs(i+1), frag)
	return nil
}

func (r *refStore) insertIntoLast(id NodeID, frag []Token) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	r.spliceAt(r.subtreeEnd(i)-1, frag)
	return nil
}

func (r *refStore) deleteNode(id NodeID) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	end := r.subtreeEnd(i)
	r.items = append(r.items[:i], r.items[end:]...)
	return nil
}

func (r *refStore) replaceNode(id NodeID, frag []Token) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	end := r.subtreeEnd(i)
	r.items = append(r.items[:i], r.items[end:]...)
	r.spliceAt(i, frag)
	return nil
}

func (r *refStore) replaceContent(id NodeID, frag []Token) error {
	i, err := r.findBegin(id)
	if err != nil {
		return err
	}
	end := r.subtreeEnd(i) // index past the end token
	cs := r.skipAttrs(i + 1)
	r.items = append(r.items[:cs], r.items[end-1:]...)
	r.spliceAt(cs, frag)
	return nil
}

// nodeIDs returns all live node ids in document order.
func (r *refStore) nodeIDs() []NodeID {
	var out []NodeID
	for _, it := range r.items {
		if it.ID != InvalidNode {
			out = append(out, it.ID)
		}
	}
	return out
}

// elementIDs returns ids of element nodes.
func (r *refStore) elementIDs() []NodeID {
	var out []NodeID
	for _, it := range r.items {
		if it.ID != InvalidNode && it.Tok.Kind == token.BeginElement {
			out = append(out, it.ID)
		}
	}
	return out
}

// compare checks that the real store contents match the reference exactly —
// same tokens, same regenerated ids, same order.
func compareStores(t testing.TB, s *Store, ref *refStore, ctx string) {
	t.Helper()
	got, err := s.ReadAll()
	if err != nil {
		t.Fatalf("%s: ReadAll: %v", ctx, err)
	}
	if len(got) != len(ref.items) {
		t.Fatalf("%s: store has %d items, ref has %d", ctx, len(got), len(ref.items))
	}
	for i := range got {
		if got[i].ID != ref.items[i].ID || got[i].Tok != ref.items[i].Tok {
			t.Fatalf("%s: item %d: store {%d %s}, ref {%d %s}",
				ctx, i, got[i].ID, got[i].Tok, ref.items[i].ID, ref.items[i].Tok)
		}
	}
}

// Package btree implements an in-memory B+tree with uint64 keys, used as the
// index substrate for both the coarse Range Index and the eager Full Index
// baseline. Keys are node identifiers; values are generic.
//
// The tree supports the operations the paper's indexes need: exact lookup,
// floor search (largest key <= k, how an ID interval is located from an
// arbitrary node id), ordered ascent over a key range, insert, delete and
// in-place value update. It is not safe for concurrent use; the store
// serializes access.
package btree

import (
	"fmt"
	"unsafe"
)

// degree is the maximum number of keys per node. 64 keeps nodes within a few
// cache lines while staying shallow for millions of entries.
const degree = 64

type node[V any] struct {
	keys     []uint64
	vals     []V        // leaf only
	children []*node[V] // interior only
	next     *node[V]   // leaf chain for range scans
	prev     *node[V]
}

func (n *node[V]) leaf() bool { return n.children == nil }

// Tree is a B+tree from uint64 keys to V values.
type Tree[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: &node[V]{}}
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Bytes is the heap the tree's nodes hold: each node and the arrays behind
// its keys, values and children, counted by capacity.
func (t *Tree[V]) Bytes() int64 { return t.root.bytes() }

func (n *node[V]) bytes() int64 {
	var v V
	b := int64(unsafe.Sizeof(*n)) + int64(cap(n.keys))*8 +
		int64(cap(n.vals))*int64(unsafe.Sizeof(v)) + int64(cap(n.children))*int64(unsafe.Sizeof(n))
	for _, c := range n.children {
		b += c.bytes()
	}
	return b
}

// search returns the index of the first key >= k in n.keys.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for key k. Interior nodes
// hold separator keys: child i covers keys < keys[i]; the last child covers
// the rest.
func childIndex(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if k >= keys[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value for k.
func (t *Tree[V]) Get(k uint64) (V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.keys, k)]
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i], true
	}
	var zero V
	return zero, false
}

// Floor returns the largest entry with key <= k.
func (t *Tree[V]) Floor(k uint64) (uint64, V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.keys, k)]
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.keys[i], n.vals[i], true
	}
	if i > 0 {
		return n.keys[i-1], n.vals[i-1], true
	}
	// The floor may live in the previous leaf.
	if n.prev != nil && len(n.prev.keys) > 0 {
		p := n.prev
		return p.keys[len(p.keys)-1], p.vals[len(p.vals)-1], true
	}
	var zero V
	return 0, zero, false
}

// Ceiling returns the smallest entry with key >= k.
func (t *Tree[V]) Ceiling(k uint64) (uint64, V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.keys, k)]
	}
	i := search(n.keys, k)
	if i < len(n.keys) {
		return n.keys[i], n.vals[i], true
	}
	if n.next != nil && len(n.next.keys) > 0 {
		nx := n.next
		return nx.keys[0], nx.vals[0], true
	}
	var zero V
	return 0, zero, false
}

// Min returns the smallest entry.
func (t *Tree[V]) Min() (uint64, V, bool) { return t.Ceiling(0) }

// Max returns the largest entry.
func (t *Tree[V]) Max() (uint64, V, bool) { return t.Floor(^uint64(0)) }

// Set inserts or replaces the value for k.
func (t *Tree[V]) Set(k uint64, v V) {
	nk, nc := t.insert(t.root, k, v)
	if nc != nil {
		t.root = &node[V]{
			keys:     []uint64{nk},
			children: []*node[V]{t.root, nc},
		}
	}
}

// insert adds k:v under n. If n splits, it returns the separator key and the
// new right sibling.
func (t *Tree[V]) insert(n *node[V], k uint64, v V) (uint64, *node[V]) {
	if n.leaf() { // the root
		if at, over := t.insertLeaf(n, k, v); over {
			return t.splitLeaf(n, at)
		}
		return 0, nil
	}
	ci := childIndex(n.keys, k)
	var nk uint64
	var nc *node[V]
	if c := n.children[ci]; c.leaf() {
		at, over := t.insertLeaf(c, k, v)
		if !over || shift(n, ci) {
			return 0, nil
		}
		nk, nc = t.splitLeaf(c, at)
	} else if nk, nc = t.insert(c, k, v); nc == nil {
		return 0, nil
	}
	n.keys = insertAt(n.keys, ci, nk)
	n.children = insertAt(n.children, ci+1, nc)
	if len(n.keys) <= degree {
		return 0, nil
	}
	return t.splitInterior(n)
}

// insertLeaf adds k:v to leaf n and reports where, and whether n now holds
// more than degree keys. A leaf's arrays are most of the tree's bytes, and
// Bytes counts their capacity, so every leaf but the last holds arrays of
// exactly its length: a full one grows by one slot. The last leaf, which
// ascending keys fill, grows by an eighth (at least four slots, at most to
// degree), not by append's doubling. A leaf holding degree keys grows to
// degree+1 only until the shift or split that follows.
func (t *Tree[V]) insertLeaf(n *node[V], k uint64, v V) (at int, over bool) {
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		n.vals[i] = v
		return i, false
	}
	if len(n.keys) == cap(n.keys) {
		c := len(n.keys) + 1
		if n.next == nil {
			c = min(len(n.keys)+max(len(n.keys)/8, 4), degree)
		}
		if len(n.keys) == degree {
			c = degree + 1
		}
		n.keys = append(make([]uint64, 0, c), n.keys...)
		n.vals = append(make([]V, 0, c), n.vals...)
	}
	n.keys = insertAt(n.keys, i, k)
	n.vals = insertAt(n.vals, i, v)
	t.size++
	return i, len(n.keys) > degree
}

// shift relieves the overfull leaf n.children[ci] by moving half of what it
// holds beyond a sibling into that sibling under the same parent — the left
// one first — and moving the separator between them. It reports false when
// both siblings are full (or absent), and the leaf must split. Keys that
// land in the middle of the key space (the Range Index gets one whenever a
// split's tail takes a start id) would otherwise leave two half-full leaves
// per split that no later key fills; shifting keeps leaves near full until
// a whole neighbourhood is.
func shift[V any](n *node[V], ci int) bool {
	c := n.children[ci]
	if ci > 0 {
		if l := n.children[ci-1]; len(l.keys) < degree {
			m := (len(c.keys) - len(l.keys) + 1) / 2
			l.keys, c.keys = concat(l.keys, c.keys[:m]), concat(c.keys[m:], nil)
			l.vals, c.vals = concat(l.vals, c.vals[:m]), concat(c.vals[m:], nil)
			n.keys[ci-1] = c.keys[0]
			return true
		}
	}
	if ci+1 < len(n.children) {
		if r := n.children[ci+1]; len(r.keys) < degree {
			cut := len(c.keys) - (len(c.keys)-len(r.keys)+1)/2
			r.keys, c.keys = concat(c.keys[cut:], r.keys), concat(c.keys[:cut], nil)
			r.vals, c.vals = concat(c.vals[cut:], r.vals), concat(c.vals[:cut], nil)
			n.keys[ci] = r.keys[0]
			return true
		}
	}
	return false
}

// concat returns a followed by b in an array of exactly their length.
func concat[E any](a, b []E) []E {
	return append(append(make([]E, 0, len(a)+len(b)), a...), b...)
}

// splitLeaf splits a leaf that the insert at index at overfilled. The last
// leaf overfilled at its end is the tail of ascending keys — the Range Index
// gets one whenever a new range takes the next node ids — so it keeps every
// key but the new one and stays full; any other leaf splits in half. Both
// halves get arrays of their own length, so no leaf pins the array it grew.
func (t *Tree[V]) splitLeaf(n *node[V], at int) (uint64, *node[V]) {
	mid := len(n.keys) / 2
	if n.next == nil && at == len(n.keys)-1 {
		mid = at
	}
	right := &node[V]{
		keys: concat(n.keys[mid:], nil),
		vals: concat(n.vals[mid:], nil),
		next: n.next,
		prev: n,
	}
	if n.next != nil {
		n.next.prev = right
	}
	n.keys = concat(n.keys[:mid], nil)
	n.vals = concat(n.vals[:mid], nil)
	n.next = right
	return right.keys[0], right
}

func (t *Tree[V]) splitInterior(n *node[V]) (uint64, *node[V]) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node[V]{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]*node[V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

func insertAt[E any](s []E, i int, e E) []E {
	s = append(s, e)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// Delete removes k, reporting whether it was present.
//
// The leaf that loses k takes the first entry of its right sibling under the
// same parent, so the hole moves right instead of staying: deletes that
// cluster near the largest keys (the Range Index loses one whenever ranges
// merge, and merges follow appends) leave their holes in the last leaf, which
// the next ascending inserts fill, and not in full leaves no insert reaches
// again. The leaf left with the hole, unless it is the last, gets arrays of
// its new length (see insertLeaf). A leaf that empties is unlinked; other
// underfull leaves are tolerated.
func (t *Tree[V]) Delete(k uint64) bool {
	n := t.root
	var pbuf [8]*node[V] // the path down, on the stack for any tree under 64^8 keys
	var ibuf [8]int
	parents, idx := pbuf[:0], ibuf[:0]
	for !n.leaf() {
		ci := childIndex(n.keys, k)
		parents = append(parents, n)
		idx = append(idx, ci)
		n = n.children[ci]
	}
	i := search(n.keys, k)
	if i >= len(n.keys) || n.keys[i] != k {
		return false
	}
	n.keys = removeAt(n.keys, i)
	n.vals = removeAt(n.vals, i)
	t.size--
	if len(parents) == 0 {
		return true
	}
	if p, ci := parents[len(parents)-1], idx[len(idx)-1]; ci+1 < len(p.children) {
		r := p.children[ci+1]
		n.keys = append(n.keys, r.keys[0])
		n.vals = append(n.vals, r.vals[0])
		r.keys = removeAt(r.keys, 0)
		r.vals = removeAt(r.vals, 0)
		if len(r.keys) > 0 {
			p.keys[ci] = r.keys[0]
		}
		n, idx[len(idx)-1] = r, ci+1
	}
	if n.next != nil && len(n.keys) > 0 {
		n.keys, n.vals = concat(n.keys, nil), concat(n.vals, nil)
	}
	// Unlink empty leaves so scans stay O(live nodes).
	if len(n.keys) == 0 {
		if n.prev != nil {
			n.prev.next = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
		for level := len(parents) - 1; level >= 0; level-- {
			p, ci := parents[level], idx[level]
			p.children = removeAt(p.children, ci)
			if ci > 0 {
				p.keys = removeAt(p.keys, ci-1)
			} else if len(p.keys) > 0 {
				p.keys = removeAt(p.keys, 0)
			}
			if len(p.children) > 0 {
				break
			}
		}
		// Collapse trivial roots.
		for !t.root.leaf() && len(t.root.children) == 1 {
			t.root = t.root.children[0]
		}
	}
	return true
}

func removeAt[E any](s []E, i int) []E {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// Ascend calls fn for each entry with key in [from, to] in ascending order.
// fn returning false stops the scan.
func (t *Tree[V]) Ascend(from, to uint64, fn func(k uint64, v V) bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.keys, from)]
	}
	i := search(n.keys, from)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if n.keys[i] > to {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// AscendAll visits every entry in ascending key order.
func (t *Tree[V]) AscendAll(fn func(k uint64, v V) bool) {
	t.Ascend(0, ^uint64(0), fn)
}

// Height returns the tree height (1 for a lone leaf); used in tests and
// stats.
func (t *Tree[V]) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// CheckInvariants verifies structural invariants for tests.
func (t *Tree[V]) CheckInvariants() error {
	count := 0
	var last *uint64
	err := t.check(t.root, nil, nil, &count, &last)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d, counted %d", t.size, count)
	}
	return nil
}

func (t *Tree[V]) check(n *node[V], lo, hi *uint64, count *int, last **uint64) error {
	if n.leaf() {
		if len(n.vals) != len(n.keys) {
			return fmt.Errorf("btree: leaf keys/vals mismatch")
		}
		for i := range n.keys {
			k := n.keys[i]
			if i > 0 && n.keys[i-1] >= k {
				return fmt.Errorf("btree: unsorted leaf keys")
			}
			if lo != nil && k < *lo {
				return fmt.Errorf("btree: key %d below bound %d", k, *lo)
			}
			if hi != nil && k >= *hi {
				return fmt.Errorf("btree: key %d above bound %d", k, *hi)
			}
			if *last != nil && **last >= k {
				return fmt.Errorf("btree: leaf chain out of order")
			}
			kk := k
			*last = &kk
			*count++
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree: interior fanout mismatch")
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		}
		if err := t.check(c, clo, chi, count, last); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/wal"
	"repro/internal/xmltok"
)

var errAbort = errors.New("test: abort the batch")

func frag(src string) []Token { return xmltok.MustParseFragment(src) }

// itemsXML serializes what Batch.ReadNode returned.
func itemsXML(t *testing.T, items []Item) string {
	t.Helper()
	toks := make([]Token, len(items))
	for i, it := range items {
		toks[i] = it.Tok
	}
	x, err := xmltok.ToString(toks)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// snapshot is what an aborted batch must leave exactly as it found it: the
// document, the XML of every live node id, the node and range counts and
// the live-range table's bytes.
type snapshot struct {
	xml    string
	nodes  map[NodeID]string
	counts [3]uint64
}

func takeSnapshot(t *testing.T, s *Store) snapshot {
	t.Helper()
	x, err := s.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshot{xml: x, nodes: map[NodeID]string{}}
	err = s.Scan(func(it Item) bool {
		if it.ID != InvalidNode {
			snap.nodes[it.ID] = ""
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range snap.nodes {
		if snap.nodes[id], err = s.NodeXMLString(id); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	snap.counts = [3]uint64{st.Nodes, uint64(st.Ranges), uint64(st.RangeIndexBytes)}
	return snap
}

// sameAs fails unless s is exactly at snapshot want, checked and verified.
func (want snapshot) sameAs(t *testing.T, s *Store) {
	t.Helper()
	got := takeSnapshot(t, s)
	if got.xml != want.xml {
		t.Fatalf("document after abort:\n got %s\nwant %s", got.xml, want.xml)
	}
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%d node ids after abort, want %d", len(got.nodes), len(want.nodes))
	}
	for id, x := range want.nodes {
		if got.nodes[id] != x {
			t.Fatalf("node %d after abort: %q, want %q", id, got.nodes[id], x)
		}
	}
	if got.counts != want.counts {
		t.Fatalf("nodes, ranges, range-table bytes after abort: %v, want %v", got.counts, want.counts)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("verify after abort: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after abort: %v", err)
	}
}

// TestBatch holds Update to its contract row by row, in every mode: a batch
// whose function returns nil leaves want behind; one that returns an error
// leaves the store exactly as before, every id included.
func TestBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed string // fragment loaded before the batch ("" = empty store)
		fn   func(t *testing.T, b *Batch) error
		want string // after a commit; "" for rows that abort
	}{
		{"commit", "", func(t *testing.T, b *Batch) error {
			root, err := b.Append(frag(`<doc><a/></doc>`))
			if err != nil {
				return err
			}
			_, err = b.InsertIntoLast(root, frag(`<b/>`))
			return err
		}, `<doc><a/><b/></doc>`},
		{"abort inserts", `<doc><keep/></doc>`, func(t *testing.T, b *Batch) error {
			if _, err := b.InsertIntoLast(1, frag(`<added1/><added2>x</added2>`)); err != nil {
				return err
			}
			if _, err := b.InsertIntoFirst(1, frag(`front`)); err != nil {
				return err
			}
			return errAbort
		}, ""},
		{"abort delete first", `<doc><a>1</a><b>2</b><c>3</c></doc>`, deleteThenAbort(2), ""},
		{"abort delete middle", `<doc><a>1</a><b>2</b><c>3</c></doc>`, deleteThenAbort(4), ""},
		{"abort delete last", `<doc><a>1</a><b>2</b><c>3</c></doc>`, deleteThenAbort(6), ""},
		{"abort top-level delete", `<a/><b/>`, deleteThenAbort(2), ""},
		{"abort mixed ops", `<doc><a/><b/><c/></doc>`, func(t *testing.T, b *Batch) error {
			for _, id := range []NodeID{3, 4} {
				if err := b.DeleteNode(id); err != nil {
					return err
				}
			}
			if _, err := b.InsertIntoLast(1, frag(`<d/>`)); err != nil {
				return err
			}
			return errAbort
		}, ""},
		{"abort replace", `<doc><old>payload</old><tail/></doc>`, func(t *testing.T, b *Batch) error {
			if _, err := b.ReplaceNode(2, frag(`<new/>`)); err != nil {
				return err
			}
			items, err := b.ReadNode(1)
			if err != nil {
				return err
			}
			if got := itemsXML(t, items); got != `<doc><new/><tail/></doc>` {
				t.Errorf("inside the batch: %s", got)
			}
			return errAbort
		}, ""},
		{"abort of nothing", `<a/>`, func(*testing.T, *Batch) error { return errAbort }, ""},
		{"op errors propagate", `<a/>`, func(t *testing.T, b *Batch) error {
			if _, err := b.InsertIntoLast(99, frag(`<x/>`)); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("insert into a missing node: %v", err)
			}
			if err := b.DeleteNode(99); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("delete of a missing node: %v", err)
			}
			if _, err := b.ReadNode(99); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("read of a missing node: %v", err)
			}
			if _, err := b.ReplaceNode(99, frag(`<x/>`)); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("replace of a missing node: %v", err)
			}
			if _, err := b.Append(nil); !errors.Is(err, ErrBadFragment) {
				t.Errorf("append of nothing: %v", err)
			}
			// The batch is still usable after op errors.
			_, err := b.InsertIntoLast(1, frag(`<ok/>`))
			return err
		}, `<a><ok/></a>`},
		{"top-level siblings and content", "", func(t *testing.T, b *Batch) error {
			if _, err := b.Append(frag(`<a>x</a><b/>`)); err != nil {
				return err
			}
			if _, err := b.InsertBefore(1, frag(`<zero/>`)); err != nil {
				return err
			}
			if _, err := b.InsertAfter(3, frag(`<last/>`)); err != nil {
				return err
			}
			_, err := b.ReplaceContent(1, frag(`<y/>`))
			return err
		}, `<zero/><a><y/></a><b/><last/>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range allModes {
				s := openStore(t, Config{Mode: mode})
				if tc.seed != "" {
					if _, err := s.Append(frag(tc.seed)); err != nil {
						t.Fatal(err)
					}
				}
				before := takeSnapshot(t, s)
				err := s.Update(context.Background(), func(b *Batch) error { return tc.fn(t, b) })
				if tc.want == "" {
					if !errors.Is(err, errAbort) {
						t.Fatalf("%v: Update returned %v, want the batch's error", mode, err)
					}
					before.sameAs(t, s)
					continue
				}
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if got, _ := s.XMLString(); got != tc.want {
					t.Fatalf("%v: after commit %s, want %s", mode, got, tc.want)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
			}
		})
	}
}

func deleteThenAbort(id NodeID) func(*testing.T, *Batch) error {
	return func(_ *testing.T, b *Batch) error {
		if err := b.DeleteNode(id); err != nil {
			return err
		}
		return errAbort
	}
}

// TestBatchUsedAfterUpdate: a Batch is only good inside its function.
func TestBatchUsedAfterUpdate(t *testing.T) {
	s := openStore(t, Config{})
	var kept *Batch
	if err := s.Update(context.Background(), func(b *Batch) error { kept = b; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := kept.Append(frag(`<late/>`)); !errors.Is(err, errBatchDone) {
		t.Fatalf("append through a finished batch: %v", err)
	}
	if err := kept.DeleteNode(1); !errors.Is(err, errBatchDone) {
		t.Fatalf("delete through a finished batch: %v", err)
	}
}

// TestBatchAbortRestoresExactly aborts a small batch and one that dirties
// more than twice the pool, in every mode over every kind of pager, after an
// update that was never flushed. The pager must not see the batch (the pool
// holds it), and what came before it must survive: the document, every id,
// the counts. Ids the batch handed out are not issued again. The large batch,
// committed, leaves the pool at its capacity.
func TestBatchAbortRestoresExactly(t *testing.T) {
	const pageSize, poolPages = 512, 8
	pagers := []struct {
		name string
		open func(t *testing.T) pagestore.Pager
	}{
		{"memory", func(*testing.T) pagestore.Pager { return nil }},
		{"file", func(t *testing.T) pagestore.Pager {
			p, err := pagestore.OpenFilePager(filepath.Join(t.TempDir(), "s.db"), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"wal", func(t *testing.T) pagestore.Pager {
			p, err := wal.Open(filepath.Join(t.TempDir(), "s.db"), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, mode := range allModes {
		for _, pg := range pagers {
			for _, large := range []bool{false, true} {
				name := fmt.Sprintf("%v/%s/large=%v", mode, pg.name, large)
				t.Run(name, func(t *testing.T) {
					build := func() *Store {
						s := openStore(t, Config{Mode: mode, PageSize: pageSize, PoolPages: poolPages,
							MaxRangeTokens: 32, Pager: pg.open(t)})
						if _, err := s.Append(buildFlatDoc(120)); err != nil {
							t.Fatal(err)
						}
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
						// Written, never flushed: only the pool has it.
						if _, err := s.InsertIntoLast(1, frag(`<pre>unflushed</pre>`)); err != nil {
							t.Fatal(err)
						}
						return s
					}
					// The snapshot reads the whole store, which would write the
					// unflushed pages back as it evicts them: take it of a twin.
					s, before := build(), takeSnapshot(t, build())
					var highWater NodeID
					var nodesAtEnd uint64
					// The batch's first insert brings names the store has not
					// seen (new, n, f): the abort forgets them, and the next
					// insert that uses them gets the ids the batch gave them.
					namesBefore := s.dict.AppendTable(nil)
					var namesInBatch []byte
					batch := func(b *Batch) error {
						rng := rand.New(rand.NewSource(1))
						ops := 3
						if large {
							ops = 400
						}
						for i := 0; i < ops; i++ {
							id := NodeID(2 + 3*rng.Intn(120)) // a <rec>
							var err error
							switch i % 3 {
							case 0:
								_, err = b.InsertAfter(id, frag(fmt.Sprintf(`<new n="%d"><f>some bytes to fill pages</f></new>`, i)))
							case 1:
								err = b.DeleteNode(id)
							default:
								_, err = b.ReplaceNode(id, frag(`<swapped>a replacement that is longer</swapped>`))
							}
							if err != nil && !errors.Is(err, ErrNoSuchNode) { // an earlier op took it
								return err
							}
						}
						if large && s.pool.Resident() <= 2*poolPages {
							t.Errorf("the large batch holds only %d frames; it must dirty more than %d", s.pool.Resident(), 2*poolPages)
						}
						highWater, nodesAtEnd = s.nextID, s.nodes
						namesInBatch = s.dict.AppendTable(nil)
						return nil
					}
					err := s.Update(context.Background(), func(b *Batch) error {
						if err := batch(b); err != nil {
							return err
						}
						return errAbort
					})
					if !errors.Is(err, errAbort) {
						t.Fatalf("Update: %v", err)
					}
					before.sameAs(t, s)
					if got := s.dict.AppendTable(nil); string(got) != string(namesBefore) {
						t.Fatalf("names after the abort %q, want %q", got, namesBefore)
					}
					again, err := s.InsertIntoLast(1, frag(`<new n="0"><f>again</f></new>`))
					if err != nil {
						t.Fatal(err)
					}
					if got := s.dict.AppendTable(nil); len(got) <= len(namesBefore) || len(got) > len(namesInBatch) || string(got) != string(namesInBatch[:len(got)]) {
						t.Fatalf("names after the abort and one insert %q, the aborted batch had %q", got, namesInBatch)
					}
					if err := s.DeleteNode(again); err != nil {
						t.Fatal(err)
					}
					id, err := s.InsertIntoLast(1, frag(`<after/>`))
					if err != nil {
						t.Fatal(err)
					}
					if id < highWater {
						t.Fatalf("id %d issued again after the abort (the batch went up to %d)", id, highWater)
					}
					if err := s.DeleteNode(id); err != nil {
						t.Fatal(err)
					}
					if !large {
						return
					}
					if err := s.Update(context.Background(), batch); err != nil {
						t.Fatal(err)
					}
					if n := s.pool.Resident(); n > poolPages {
						t.Fatalf("%d frames in a pool of %d after the commit", n, poolPages)
					}
					if st := s.Stats(); st.Nodes != nodesAtEnd {
						t.Fatalf("%d nodes after the commit, the batch ended with %d", st.Nodes, nodesAtEnd)
					}
					if err := s.Verify(); err != nil {
						t.Fatal(err)
					}
					if err := s.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestBatchAbortKeepsBudget: an abort rebuilds the indexes, and the memory
// the old ones were charged goes back to the budget, so aborts cannot creep
// the store towards budget pressure.
func TestBatchAbortKeepsBudget(t *testing.T) {
	s := openStore(t, Config{Mode: RangePartial, MaxRangeTokens: 64, MemoryBudget: 64 << 20})
	if _, err := s.Append(buildFlatDoc(300)); err != nil {
		t.Fatal(err)
	}
	warm := func() int64 {
		for id := NodeID(1); id < 900; id += 7 {
			if _, err := s.ReadNode(id); err != nil {
				t.Fatal(err)
			}
		}
		m := s.Stats().Memory
		return m.PartialBytes + m.CheckpointBytes
	}
	first := warm()
	for i := 0; i < 20; i++ {
		if err := s.Update(context.Background(), func(b *Batch) error {
			if _, err := b.InsertIntoLast(1, frag(`<x/>`)); err != nil {
				return err
			}
			return errAbort
		}); !errors.Is(err, errAbort) {
			t.Fatal(err)
		}
	}
	if got := warm(); got > first {
		t.Fatalf("index memory charged after 20 aborts: %d bytes, %d before", got, first)
	}
}

// TestConcurrentTransferInvariant: concurrent batches move <coin/> elements
// between two purses, some of them aborting after the move; the total is
// conserved. Run under -race by scripts/check.sh.
func TestConcurrentTransferInvariant(t *testing.T) {
	s := openStore(t, Config{Mode: RangePartial})
	if _, err := s.Append(frag(`<bank><a/><b/></bank>`)); err != nil { // bank=1 a=2 b=3
		t.Fatal(err)
	}
	const initial = 20
	if err := s.Update(context.Background(), func(b *Batch) error {
		for i := 0; i < initial; i++ {
			if _, err := b.InsertIntoLast(2, frag(`<coin/>`)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	transfer := func(from, to NodeID) {
		defer wg.Done()
		for n := 0; n < 10; n++ {
			err := s.Update(context.Background(), func(b *Batch) error {
				items, err := b.ReadNode(from)
				if err != nil {
					return err
				}
				for _, it := range items[1:] {
					if it.Tok.IsBegin() && it.Tok.Name == "coin" {
						if err := b.DeleteNode(it.ID); err != nil {
							return err
						}
						if _, err := b.InsertIntoLast(to, frag(`<coin/>`)); err != nil {
							return err
						}
						break
					}
				}
				if n%3 == 2 {
					return errAbort
				}
				return nil
			})
			if err != nil && !errors.Is(err, errAbort) {
				t.Errorf("transfer: %v", err)
				return
			}
		}
	}
	wg.Add(4)
	go transfer(2, 3)
	go transfer(3, 2)
	go transfer(2, 3)
	go transfer(3, 2)
	wg.Wait()

	coins := 0
	if err := s.Scan(func(it Item) bool {
		if it.Tok.IsBegin() && it.Tok.Name == "coin" {
			coins++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if coins != initial {
		t.Errorf("coins = %d, want %d", coins, initial)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestHostileConcurrencyStress runs batches beside readers and plain
// writers: batch writers on one subtree and across two (sleeping inside the
// batch, so everyone else piles up behind the lock), cancellers whose
// deadline of 1–8 ms mostly passes before they commit, readers of a subtree
// or the whole document, and plain insert/delete writers. Every writer
// leaves what it found, so the document must end exactly as seeded; the
// only error allowed is a canceller's deadline; nothing may hang. Run under
// -race by scripts/check.sh.
func TestHostileConcurrencyStress(t *testing.T) {
	const subtrees = 8
	iterations := 60
	if testing.Short() {
		iterations = 15
	}
	s := openStore(t, Config{Mode: RangePartial})
	doc := `<doc>`
	for i := 0; i < subtrees; i++ {
		doc += `<sub><leaf/></sub>`
	}
	doc += `</doc>`
	if _, err := s.Append(frag(doc)); err != nil {
		t.Fatal(err)
	}
	// ids: doc=1, sub_k = 2+2k (its leaf = 3+2k).
	subID := func(k int) NodeID { return NodeID(2 + 2*k) }
	insertDelete := func(b *Batch, sub NodeID) error {
		id, err := b.InsertIntoLast(sub, frag(`<w/>`))
		if err != nil {
			return err
		}
		return b.DeleteNode(id)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	var commits, deadlines atomic.Int64
	for g := 0; g < 15; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for i := 0; i < iterations; i++ {
				var err error
				switch g % 5 {
				case 0: // batch on one subtree
					err = s.Update(ctx, func(b *Batch) error { return insertDelete(b, subID(g%subtrees)) })
				case 1: // batch across two subtrees, holding the lock a while
					a, c := rng.Intn(subtrees), rng.Intn(subtrees)
					err = s.Update(ctx, func(b *Batch) error {
						if err := insertDelete(b, subID(a)); err != nil {
							return err
						}
						time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
						return insertDelete(b, subID(c))
					})
				case 2: // reader of one subtree or the whole document
					if rng.Intn(4) == 0 {
						_, err = s.ReadAll()
					} else {
						_, err = s.ReadNode(subID(rng.Intn(subtrees)))
					}
				case 3: // canceller: a deadline that often passes mid-batch
					opCtx, cancel := context.WithTimeout(ctx, time.Duration(1+rng.Intn(8))*time.Millisecond)
					err = s.Update(opCtx, func(b *Batch) error {
						if err := insertDelete(b, subID(rng.Intn(subtrees))); err != nil {
							return err
						}
						time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
						return insertDelete(b, subID(rng.Intn(subtrees)))
					})
					cancel()
					if errors.Is(err, context.DeadlineExceeded) {
						deadlines.Add(1)
						continue
					}
				default: // plain writer beside the batches
					var id NodeID
					if id, err = s.InsertIntoLast(subID(rng.Intn(subtrees)), frag(`<p/>`)); err == nil {
						err = s.DeleteNode(id)
					}
				}
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				commits.Add(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("stress harness hung")
	}
	t.Logf("ops=%d deadline-aborted batches=%d", commits.Load(), deadlines.Load())
	if got, _ := s.XMLString(); got != doc {
		t.Errorf("document drifted:\n got %s\nwant %s", got, doc)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

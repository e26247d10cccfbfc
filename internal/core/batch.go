package core

import (
	"context"
	"errors"
	"fmt"
)

// Batches: several updates that commit together or not at all.
//
// A batch runs under one writeOp — the exclusive lock, one admission slot
// and the operation deadline cover it from its first operation to its
// commit — and the buffer pool holds every page it dirties in memory until
// it ends (no steal). A commit writes them back and stages them as one WAL
// batch, made durable after the lock is released exactly as Flush does
// (force). An abort drops them and reloads the in-memory state from the
// pager, which never saw the batch: there is nothing to undo.

// errBatchDone is returned by a Batch used after its Update returned.
var errBatchDone = errors.New("core: batch used after its Update returned")

// Batch is the handle fn receives from Update: the store's updates, applied
// in order inside the batch, plus reads that see them.
type Batch struct {
	s   *Store
	cur *rangeCursor // nil once Update has returned
}

// Update runs fn as one batch. When fn returns nil every update it made
// commits as one unit: on a write-ahead-logged pager it is one WAL batch,
// durable when Update returns. When fn returns an error — or the operation's
// deadline passes before the commit — none of them happened: the store is
// exactly as before, node ids included, and the error is returned. Node ids
// handed out inside an aborted batch are never issued again.
//
// fn must use only b. The store's lock is held while fn runs and is not
// reentrant, so calling any Store method from inside fn deadlocks. If an
// abort cannot reload the store, the store degrades to read-only.
func (s *Store) Update(ctx context.Context, fn func(b *Batch) error) error {
	var j journal
	var lsn uint64
	err := s.writeOp(ctx, func(cur *rangeCursor) (err error) {
		j, lsn, err = s.runBatch(cur, fn)
		return err
	})
	if err != nil || j == nil {
		return err
	}
	return s.syncJournal(j, lsn)
}

// runBatch is Update under writeOp: everything up to the sync.
func (s *Store) runBatch(cur *rangeCursor, fn func(b *Batch) error) (j journal, lsn uint64, err error) {
	// Write back what earlier writes left in the pool, and the allocator
	// marks, without staging them: from here on the pager holds the state an
	// abort goes back to.
	if err := s.saveAllocState(); err != nil {
		return nil, 0, err
	}
	if err := s.pool.FlushAll(); err != nil {
		return nil, 0, err
	}
	s.pool.BeginHold()
	b := &Batch{s: s, cur: cur}
	ended := false
	defer func() {
		b.cur = nil
		if !ended { // fn panicked: the panic goes on, the batch does not
			s.abortBatch()
		}
	}()
	err = fn(b)
	if err == nil {
		err = cur.ctx.Err()
	}
	ended = true
	if err != nil {
		if aerr := s.abortBatch(); aerr != nil {
			return nil, 0, fmt.Errorf("%w (abort failed: %v)", err, aerr)
		}
		return nil, 0, err
	}
	// A commit that fails part-way has left part of the batch in the pager.
	err = s.pool.EndHold(true)
	if err == nil {
		j, lsn, err = s.stageLocked()
	}
	if err != nil {
		s.degrade(fmt.Errorf("batch commit failed: %w", err))
	}
	return j, lsn, err
}

// abortBatch ends a failed batch: the pool drops its pages and the store
// reloads from the pager. The id allocators stay at the batch's high-water
// marks, so no id the batch handed out is issued again.
func (s *Store) abortBatch() error {
	nextID, nextRange := s.nextID, s.nextRange
	err := s.pool.EndHold(false)
	if err == nil {
		err = s.reloadLocked()
	}
	if err != nil {
		s.degrade(fmt.Errorf("batch abort failed: %w", err))
		return err
	}
	s.nextID, s.nextRange = max(s.nextID, nextID), max(s.nextRange, nextRange)
	return nil
}

// Append adds frag at the end of the stored sequence; see Store.Append.
func (b *Batch) Append(frag []Token) (NodeID, error) {
	if b.cur == nil {
		return InvalidNode, errBatchDone
	}
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	return b.s.appendLocked(frag)
}

// insert is every Batch insert: the public method's check and locator.
func (b *Batch) insert(id NodeID, frag []Token, where locator) (NodeID, error) {
	if b.cur == nil {
		return InvalidNode, errBatchDone
	}
	if err := checkFragment(frag); err != nil {
		return InvalidNode, err
	}
	return b.s.insertLocked(b.cur, id, frag, where)
}

// InsertBefore inserts frag as the preceding sibling(s) of node id.
func (b *Batch) InsertBefore(id NodeID, frag []Token) (NodeID, error) {
	return b.insert(id, frag, (*Store).before)
}

// InsertAfter inserts frag as the following sibling(s) of node id.
func (b *Batch) InsertAfter(id NodeID, frag []Token) (NodeID, error) {
	return b.insert(id, frag, (*Store).after)
}

// InsertIntoFirst inserts frag as the first content of element id.
func (b *Batch) InsertIntoFirst(id NodeID, frag []Token) (NodeID, error) {
	return b.insert(id, frag, (*Store).intoFirst)
}

// InsertIntoLast inserts frag as the last content of element id.
func (b *Batch) InsertIntoLast(id NodeID, frag []Token) (NodeID, error) {
	return b.insert(id, frag, (*Store).intoLast)
}

// ReplaceNode replaces node id and its subtree with frag.
func (b *Batch) ReplaceNode(id NodeID, frag []Token) (NodeID, error) {
	return b.insert(id, frag, (*Store).deleteNodeLocked)
}

// DeleteNode removes node id and its subtree.
func (b *Batch) DeleteNode(id NodeID) error {
	if b.cur == nil {
		return errBatchDone
	}
	return b.s.deleteLocked(b.cur, id)
}

// ReplaceContent replaces the content of element id with frag (nil empties
// it); see Store.ReplaceContent.
func (b *Batch) ReplaceContent(id NodeID, frag []Token) (NodeID, error) {
	if b.cur == nil {
		return InvalidNode, errBatchDone
	}
	if len(frag) > 0 {
		if err := checkFragment(frag); err != nil {
			return InvalidNode, err
		}
	}
	return b.s.replaceContentLocked(b.cur, id, frag)
}

// ReadNode returns node id's subtree as the batch sees it so far.
func (b *Batch) ReadNode(id NodeID) ([]Item, error) {
	if b.cur == nil {
		return nil, errBatchDone
	}
	var out []Item
	var derr error
	err := b.s.scanNodeRawLocked(b.cur, id, b.s.decoded(func(it Item) bool {
		out = append(out, it)
		return true
	}, &derr))
	if derr != nil {
		return nil, derr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

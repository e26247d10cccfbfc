package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/token"
)

// rangeCodec teaches the recovery layer this store's record semantics: a
// payload is a range record, validated end to end by stepping through its
// token stream and cross-checking the header counts — node ids are never
// stored, so a record whose tokens replay to the declared counts is fully
// usable. Checking a record reads kind bytes and sizes only, never a name,
// so it needs no dictionary.
//
// The codec also carries the name dictionary from salvage to rebuild: the
// meta page's table when the meta page has one, else the longest table a
// dictionary record in the chain holds (an older copy is a prefix of a newer
// one). Use one codec per salvage.
type rangeCodec struct {
	names    []byte
	fromMeta bool
}

func (c *rangeCodec) Inspect(payload []byte) (recov.RecordMeta, error) {
	id, start, nodes, toks, tokenBytes, err := decodeRangeHeader(payload)
	if err != nil {
		return recov.RecordMeta{}, err
	}
	if id == dictRecordID {
		if start != 0 || nodes != 0 || toks != 0 {
			return recov.RecordMeta{}, fmt.Errorf("core: dictionary record claims %d nodes/%d tokens from id %d", nodes, toks, start)
		}
		if err := token.NewDict(len(tokenBytes), nil).Load(tokenBytes); err != nil {
			return recov.RecordMeta{}, fmt.Errorf("core: dictionary record: %w", err)
		}
		if !c.fromMeta && len(tokenBytes) > len(c.names) {
			c.names = tokenBytes
		}
		return recov.RecordMeta{ID: recov.SideRecordID}, nil
	}
	gotNodes, gotToks, err := countNodesInPrefix(tokenBytes, len(tokenBytes))
	if err != nil {
		return recov.RecordMeta{}, fmt.Errorf("core: range %d: token stream: %w", id, err)
	}
	if gotNodes != nodes || gotToks != toks {
		return recov.RecordMeta{}, fmt.Errorf("core: range %d: header claims %d nodes/%d tokens, stream replays to %d/%d", id, nodes, toks, gotNodes, gotToks)
	}
	meta := recov.RecordMeta{ID: uint64(id)}
	if nodes > 0 {
		meta.Key = uint64(start)
		meta.Span = uint64(nodes)
	}
	return meta, nil
}

func (c *rangeCodec) DecodeAlloc(user []byte) (nextKey, nextID uint64, ok bool) {
	id, rng, names, ok := decodeAllocState(user)
	if !ok {
		return 0, 0, false
	}
	if len(names) > 0 {
		c.names, c.fromMeta = names, true
	}
	return uint64(id), uint64(rng), true
}

func (c *rangeCodec) EncodeAlloc(nextKey, nextID uint64) []byte {
	return append(appendAllocState(nil, NodeID(nextKey), RangeID(nextID)), c.names...)
}

func (c *rangeCodec) SideRecord() []byte {
	if len(c.names) == 0 {
		return nil
	}
	return encodeDictRecord(c.names)
}

// RepairReport is the outcome of a salvage pass, plus whether a rebuild
// was written.
type RepairReport struct {
	recov.Result
	Applied bool `json:"applied"`
}

// SalvageScan runs the read-only salvage pass over a raw pager: every page
// classified, the surviving record chain reassembled, losses quantified.
// It is the page-level half of verification and the dry run of repair.
func SalvageScan(pager pagestore.Pager, metaPage pagestore.PageID) (*RepairReport, error) {
	res, err := recov.Salvage(pager, metaPage, &rangeCodec{})
	if err != nil {
		return nil, err
	}
	return &RepairReport{Result: *res}, nil
}

// RepairPager salvages the store behind pager and, when apply is set and
// the store needs it, rebuilds: salvaged ranges are written as a fresh
// generation, the meta page switched over, and the old generation zeroed.
// With a WAL-backed pager the rebuild is one atomic batch.
func RepairPager(pager pagestore.Pager, metaPage pagestore.PageID, apply bool) (*RepairReport, error) {
	codec := &rangeCodec{}
	res, err := recov.Salvage(pager, metaPage, codec)
	if err != nil {
		return nil, err
	}
	rep := &RepairReport{Result: *res}
	if apply && !res.Clean {
		if err := recov.Rebuild(pager, metaPage, res, codec); err != nil {
			return rep, err
		}
		rep.Applied = true
	}
	return rep, nil
}

// Repair runs salvage over this store's own pages. With apply set it
// rewrites the store from whatever survives and — if the rebuild succeeds
// — clears a read-only degradation latch: the store is consistent again,
// even if data quarantined by the scan is gone.
//
// On a healthy store Repair(true) is a no-op (the salvage pass reports
// Clean and nothing is written). On a degraded store the dirty in-memory
// state is discarded first; the durable on-disk image is the salvage
// source of truth.
func (s *Store) Repair(apply bool) (*RepairReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if apply && s.cfg.ReadOnly {
		return nil, fmt.Errorf("%w: cannot repair a store opened read-only", ErrReadOnly)
	}
	degraded, _ := s.ReadOnly()
	pager := s.pool.Pager()
	if degraded {
		// Drop suspect buffered state so salvage sees only what reached the
		// log. Staged batches stay: they are committed (or about to be) and
		// salvage reads them through the pager's overlay.
		if d, ok := pager.(interface{ DiscardPending() }); ok {
			d.DiscardPending()
		}
	} else if !s.cfg.ReadOnly {
		// Healthy store: make the in-memory state durable first so salvage
		// scans current data rather than racing the buffer pool.
		if err := s.flushLocked(); err != nil {
			return nil, err
		}
	}
	rep, err := RepairPager(pager, s.recs.MetaPage(), apply)
	if err != nil {
		return rep, err
	}
	if apply && (rep.Applied || degraded) {
		if err := s.reloadLocked(); err != nil {
			return rep, fmt.Errorf("core: repair applied but reload failed: %w", err)
		}
		s.degradeMu.Lock()
		s.corrupt = nil
		s.degradeMu.Unlock()
	}
	return rep, nil
}

// reloadLocked rebuilds every piece of in-memory state from the pages the
// pager holds (just repaired, or as they were before an aborted batch), as
// Reopen would: the buffer pool emptied, the record store reopened at the
// same meta page, indexes reconstructed.
func (s *Store) reloadLocked() error {
	s.pool.Discard()
	recs, err := pagestore.OpenRecordStore(s.pool, s.recs.MetaPage())
	if err != nil {
		return err
	}
	s.recs = recs
	s.rindex = btree.New[*rangeInfo]()
	s.idless = make(map[RangeID]*rangeInfo)
	// initIndexes makes new ones; give the old ones' memory back first.
	s.checkpoints.reset()
	if s.partial != nil {
		s.partial.reset()
	}
	s.partial = nil
	s.full = nil
	s.nodes, s.tokens, s.bytes = 0, 0, 0
	s.nextID = 1
	s.nextRange = 1
	s.savedID, s.savedRange = 0, 0
	s.dictLoc = pagestore.NilLoc // rebuild finds it and loads the names

	s.gen.Add(1) // the content is now whatever survived
	if err := s.initIndexes(); err != nil {
		return err
	}
	return s.rebuild()
}

// BackupTo streams a consistent snapshot of the live store into a new page
// file at dest, plus a restore sidecar at dest+".meta", through
// recov.WriteBackup. Writers are held off for the duration (the store lock
// is exclusive); the image is flushed, committed and checkpointed first,
// so the backup cuts exactly at the current state.
func (s *Store) BackupTo(dest string) (recov.BackupMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return recov.BackupMeta{}, ErrClosed
	}
	if ro, cause := s.ReadOnly(); ro {
		return recov.BackupMeta{}, fmt.Errorf("%w: store is degraded (%v); repair before taking a backup", ErrReadOnly, cause)
	}
	if !s.cfg.ReadOnly {
		if err := s.flushLocked(); err != nil {
			return recov.BackupMeta{}, err
		}
	}
	pager := s.pool.Pager()
	var lsn uint64
	if l, ok := pager.(interface{ LSN() uint64 }); ok {
		lsn = l.LSN()
	}
	// Only an archiving pager's LSN is stable across reopens and thus a
	// roll-forward point; a journal-only (or plain) pager restarts its
	// count each open, so its backups must not be segment-replay bases.
	archiving := false
	if a, ok := pager.(interface{ Archiving() bool }); ok {
		archiving = a.Archiving()
	}
	return recov.WriteBackup(pager, dest, recov.BackupMeta{
		PageSize:      pager.PageSize(),
		MetaPage:      uint32(s.recs.MetaPage()),
		LSN:           lsn,
		NoRollForward: !archiving,
	}, nil)
}

package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/btree"
	"repro/internal/budget"
	"repro/internal/pagestore"
	"repro/internal/plancache"
	"repro/internal/token"
)

// Config selects the store's indexing configuration and storage geometry.
// The zero value is usable: RangeOnly mode with default page geometry.
type Config struct {
	// Mode selects the indexing configuration (Table 5 axis).
	Mode IndexMode
	// MaxRangeTokens chops bulk loads (Append) into ranges of at most this
	// many tokens. 0 keeps each Append as a single range (the "few, coarse"
	// configuration); small values produce the "many, granular" one.
	MaxRangeTokens int
	// PartialCapacity bounds the partial index entry count (RangePartial
	// mode). Defaults to 4096.
	PartialCapacity int
	// PageSize is the storage block size in bytes (default 8192).
	PageSize int
	// PoolPages bounds the buffer pool (default 256 pages).
	PoolPages int
	// CoalesceBytes, when > 0, merges the range at a delete point — after a
	// DeleteNode, or a ReplaceContent that empties an element — with its
	// document-order neighbours while their combined encoded size stays at
	// or under this many bytes and their ID intervals remain contiguous (the
	// adaptive "anti-fragmentation" extension from the paper's future work).
	// Inserts need no knob: where a placement finds its page full, runs of
	// neighbours on the page whose ids join up merge, up to a page.
	CoalesceBytes int
	// Pager supplies custom page storage (e.g. a file pager). Defaults to
	// an in-memory pager.
	Pager pagestore.Pager
	// ReadOnly opens the store for reads only: every mutating entry point
	// returns ErrReadOnly, and Close releases the pager without flushing.
	// Pair it with a read-only pager for cross-process shared access.
	// FullIndex mode is not supported read-only (its index lives in pages
	// it would have to allocate).
	ReadOnly bool
	// OpTimeout bounds each public operation end to end: when the caller's
	// context carries no deadline of its own, one of OpTimeout is attached.
	// Long locate scans and overflow-chain walks observe it at page-fetch
	// boundaries. 0 disables the store-imposed deadline.
	OpTimeout time.Duration
	// MaxConcurrentOps caps how many public operations run inside the store
	// at once; excess operations wait in a bounded FIFO queue and are shed
	// with ErrOverloaded when it fills. 0 means the default (128); negative
	// disables admission control.
	MaxConcurrentOps int
	// MaxQueuedOps bounds the admission wait queue. 0 means the default
	// (4x MaxConcurrentOps).
	MaxQueuedOps int
	// MemoryBudget caps the bytes held by the in-memory acceleration
	// structures combined — buffer-pool frames, partial-index entries,
	// replay checkpoints and the compiled query-plan cache — with
	// pressure-driven eviction when a structure exceeds its share. 0 means
	// unlimited.
	MemoryBudget int64
	// PlanCacheEntries bounds the compiled query-plan cache. 0 means the
	// default (512 plans); negative disables plan caching entirely (every
	// query re-parses and re-plans — the benchmark baseline).
	PlanCacheEntries int
}

func (c Config) withDefaults() Config {
	if c.PartialCapacity <= 0 {
		c.PartialCapacity = 4096
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 512
	}
	if c.PageSize <= 0 {
		c.PageSize = pagestore.DefaultPageSize
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 256
	}
	if c.MaxConcurrentOps == 0 {
		c.MaxConcurrentOps = 128
	}
	if c.MaxQueuedOps <= 0 && c.MaxConcurrentOps > 0 {
		c.MaxQueuedOps = 4 * c.MaxConcurrentOps
	}
	return c
}

// Store is an adaptive XML store holding one XQuery Data Model sequence.
// All methods are safe for concurrent use (single writer, many readers).
type Store struct {
	mu  sync.RWMutex
	cfg Config

	pool *pagestore.BufferPool
	recs *pagestore.RecordStore

	// The live-range table: each range is in exactly one of the two.
	rindex *btree.Tree[*rangeInfo] // start id -> range, for ranges with ids
	idless map[RangeID]*rangeInfo  // the few with none: split-off end tags

	partial *partialIndex // nil unless RangePartial
	full    *fullIndex    // nil unless FullIndex

	nextID    NodeID
	nextRange RangeID
	// savedID/savedRange are the allocator marks on the meta page: as read
	// at reopen, or as last saved (zero on a fresh store). savedNames is how
	// many of dict's names both of its copies hold.
	savedID    NodeID
	savedRange RangeID
	savedNames int

	// dict is the store-wide name dictionary every range is encoded and
	// decoded through. One object for the store's life: a reload replaces
	// its table, not it. Its table is saved twice, in the meta page's blob
	// and in the chain record at dictLoc (NilLoc until the first name).
	dict    *token.Dict
	dictLoc pagestore.Loc

	nodes  uint64
	tokens uint64
	bytes  uint64

	inserts, deletes, splits, merges uint64

	// Read-path counters are atomic: they are bumped by concurrent readers
	// holding only mu.RLock.
	tokensScanned, nodeLookups, rangeBytesRead atomic.Uint64

	// checkpoints accelerates coarse-range locate replays; lock-striped and
	// memory-only (see checkpoints.go). Nil only before initIndexes.
	checkpoints *checkpointTable

	// adm gates public entry points under overload (nil = gate off).
	adm *admission
	// budget is the shared memory budget across pool/partial/checkpoints/
	// plans (nil = unlimited).
	budget *budget.Budget

	// plans caches compiled query plans keyed by expression source; owned
	// here (not in the query packages) so its memory is charged to this
	// store's budget and its stats ride the store's snapshot. Nil when
	// disabled. The values are opaque to core.
	plans *plancache.Cache
	// query counts query-planner outcomes; bumped by the query layer via
	// the QueryCounters accessor.
	query QueryCounters
	// gen is the content generation, bumped under mu.Lock whenever a mutation
	// is admitted: what is derived from the content is stamped with it.
	gen atomic.Uint64

	// corrupt, once set, latches the store read-only: continuing to write
	// after a checksum mismatch or a failed WAL commit can only spread the
	// damage. Guarded by degradeMu, not mu, so read paths (holding mu.RLock)
	// can latch it too.
	degradeMu sync.Mutex
	corrupt   error

	// scratch is what the write path encodes into, under mu.Lock. Nothing
	// in it outlives the write that filled it: a record is copied into its
	// page, the meta blob into the meta page.
	scratch writeScratch

	closed bool
}

// writeScratch holds the write path's reused buffers.
type writeScratch struct {
	newRec []byte // an insert's new range record (newRange)
	rec    []byte // a rewritten record (writeRangeRecord) or a split's tail
	merged []byte // the runs a merge joins, one after another (mergeRuns)
	// meta is the meta page's blob as last saved: the allocator marks, then
	// the dictionary's table, which is encoded again only when a name was
	// added. Nil until the first save after an open or a rebuild.
	meta []byte
}

// trim lets go of a buffer an outsized write grew, so one large load does
// not pin its size for the store's life.
func (w *writeScratch) trim() {
	for _, b := range []*[]byte{&w.newRec, &w.rec, &w.merged} {
		if cap(*b) > cursorRetainBytes {
			*b = nil
		}
	}
}

// degrade latches the store read-only. The first cause wins.
func (s *Store) degrade(cause error) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.corrupt == nil {
		s.corrupt = cause
	}
}

// ReadOnly reports whether the store has degraded to read-only, and the
// error that caused it.
func (s *Store) ReadOnly() (bool, error) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	return s.corrupt != nil, s.corrupt
}

// writableLocked gates mutating entry points (s.mu held): closed stores and
// degraded stores reject writes, the latter with ErrReadOnly wrapping the
// original corruption error. An admitted mutation starts a new generation —
// here, so no mutator can forget to.
func (s *Store) writableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.cfg.ReadOnly {
		return fmt.Errorf("%w: store opened read-only", ErrReadOnly)
	}
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.corrupt != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, s.corrupt)
	}
	s.gen.Add(1)
	return nil
}

// Generation returns the content generation. Equal values before and after a
// scan mean no mutation was admitted in between: the bump happens under the
// exclusive lock, before the mutation touches anything.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// latchCorrupt, deferred with a named return, degrades the store whenever
// an operation surfaces a page checksum failure.
func (s *Store) latchCorrupt(errp *error) {
	if errp == nil || *errp == nil {
		return
	}
	if errors.Is(*errp, pagestore.ErrCorruptPage) {
		s.degrade(*errp)
	}
}

// Open creates a fresh store with the given configuration.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.ReadOnly {
		// A fresh store has nothing to read; creation must write.
		return nil, fmt.Errorf("%w: cannot create a new store read-only", ErrReadOnly)
	}
	pager := cfg.Pager
	if pager == nil {
		pager = pagestore.NewMemPager(cfg.PageSize)
	}
	return newStore(cfg, pager, pagestore.CreateRecordStore)
}

// Reopen rebuilds a store from an existing pager (written by a previous
// store using the same page size). The indexes are reconstructed with one
// sequential scan of the range records; the ID allocator state is restored
// from the meta page.
func Reopen(cfg Config, pager pagestore.Pager, metaPage pagestore.PageID) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.ReadOnly && cfg.Mode == FullIndex {
		return nil, fmt.Errorf("%w: FullIndex mode allocates index pages at open and cannot run read-only", ErrReadOnly)
	}
	cfg.Pager = pager
	s, err := newStore(cfg, pager, func(pool *pagestore.BufferPool) (*pagestore.RecordStore, error) {
		return pagestore.OpenRecordStore(pool, metaPage)
	})
	if err != nil {
		return nil, err
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// newStore is what Open and Reopen share: a buffer pool over pager charged
// to the store's memory budget, the record store records creates or opens in
// it, the admission gate, the plan cache and empty indexes.
func newStore(cfg Config, pager pagestore.Pager, records func(*pagestore.BufferPool) (*pagestore.RecordStore, error)) (*Store, error) {
	b := budget.New(cfg.MemoryBudget)
	pool := pagestore.NewBufferPool(pager, cfg.PoolPages)
	pool.SetBudget(b)
	recs, err := records(pool)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:       cfg,
		pool:      pool,
		recs:      recs,
		rindex:    btree.New[*rangeInfo](),
		idless:    make(map[RangeID]*rangeInfo),
		nextID:    1,
		nextRange: 1,
		dictLoc:   pagestore.NilLoc,
		budget:    b,
		adm:       newAdmission(cfg.MaxConcurrentOps, cfg.MaxQueuedOps),
		plans:     plancache.New(cfg.PlanCacheEntries, b),
	}
	s.dict = token.NewDict(dictLimit(recs), s.degrade)
	if err := s.initIndexes(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) initIndexes() error {
	s.checkpoints = newCheckpointTable(s.budget)
	switch s.cfg.Mode {
	case RangePartial:
		s.partial = newPartialIndex(s.cfg.PartialCapacity, s.budget)
	case FullIndex:
		fx, err := newFullIndex(s.pool)
		if err != nil {
			return err
		}
		s.full = fx
	}
	return nil
}

// rebuild reconstructs all in-memory state from the record store. The
// ranges enter the table by start id, the order inserts gave them: the range
// index comes back with leaves as full as they were.
func (s *Store) rebuild() error {
	var scanErr error
	var ris []*rangeInfo
	err := s.recs.Scan(func(loc pagestore.Loc, payload []byte) bool {
		id, start, nodes, toks, tokenBytes, err := decodeRangeHeader(payload)
		if err != nil {
			scanErr = err
			return false
		}
		if id == dictRecordID {
			s.dictLoc = loc // the names are read from the meta page below
			return true
		}
		ri := &rangeInfo{id: id, start: start, nodes: nodes, loc: loc, toks: toks, bytes: len(tokenBytes)}
		ris = append(ris, ri)
		if s.full != nil {
			if err := s.full.addFragment(ri, tokenBytes); err != nil {
				scanErr = err
				return false
			}
		}
		s.nextRange = max(s.nextRange, id+1)
		if nodes > 0 {
			s.nextID = max(s.nextID, ri.end()+1)
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	slices.SortFunc(ris, func(a, b *rangeInfo) int { return cmp.Compare(a.start, b.start) })
	for _, ri := range ris {
		s.register(ri)
	}
	// Restore allocator high-water marks (they may exceed what live ranges
	// imply, because deleted ids are never reused) and the names.
	meta, err := s.recs.UserMeta()
	if err != nil {
		return err
	}
	id, rng, names, ok := decodeAllocState(meta)
	if ok {
		s.savedID, s.savedRange = id, rng
		if id > s.nextID {
			s.nextID = id
		}
		if rng > s.nextRange {
			s.nextRange = rng
		}
	}
	if err := s.dict.Load(names); err != nil {
		return fmt.Errorf("core: meta page: %w", err)
	}
	s.savedNames, s.scratch.meta = s.dict.Len(), nil
	return nil
}

// MetaPage returns the page id needed to Reopen this store later.
func (s *Store) MetaPage() pagestore.PageID { return s.recs.MetaPage() }

// journal is what Flush needs from a write-ahead-logged pager: Stage logs
// the pending pages as one batch and hands back its LSN, Sync makes that LSN
// durable (sharing the fsync with concurrent callers), Checkpoint folds the
// log into the page file.
type journal interface {
	Stage() (uint64, error)
	Sync(lsn uint64) error
	Checkpoint() error
}

// Flush writes all dirty pages and the allocator state back to the pager.
// On a write-ahead-logged pager the pages are staged in the log under the
// store lock and made durable after it is released, so the flushed state is
// crash-consistent, concurrent flushes share one fsync, and readers never
// wait for one. A failed flush or commit degrades the store to read-only:
// the on-disk state is no longer known-good, and further writes could
// compound the damage (recovery on reopen repairs it).
func (s *Store) Flush() (err error) {
	defer s.latchCorrupt(&err)
	s.mu.Lock()
	var j journal
	var lsn uint64
	if err = s.writableLocked(); err == nil {
		j, lsn, err = s.stageLocked()
	}
	s.mu.Unlock()
	if err != nil || j == nil {
		return err
	}
	return s.syncJournal(j, lsn)
}

// stageLocked writes every dirty page to the pager and, when the pager is a
// journal, stages them as one batch (s.mu held). The returned journal is nil
// for a plain pager, whose writes are already where they are going.
func (s *Store) stageLocked() (journal, uint64, error) {
	if err := s.saveAllocState(); err != nil {
		return nil, 0, err
	}
	if err := s.pool.FlushAll(); err != nil {
		return nil, 0, err
	}
	j, ok := s.pool.Pager().(journal)
	if !ok {
		return nil, 0, nil
	}
	lsn, err := j.Stage()
	if err != nil {
		s.degrade(fmt.Errorf("wal commit failed: %w", err))
		return nil, 0, err
	}
	return j, lsn, nil
}

func (s *Store) syncJournal(j journal, lsn uint64) error {
	if err := j.Sync(lsn); err != nil {
		s.degrade(fmt.Errorf("wal commit failed: %w", err))
		return err
	}
	return nil
}

// flushLocked is a full flush for callers already holding s.mu (repair and
// backup, which go on to read raw pages): stage, sync, and checkpoint, so
// the page file alone is the current state.
func (s *Store) flushLocked() error {
	j, lsn, err := s.stageLocked()
	if err != nil || j == nil {
		return err
	}
	if err := s.syncJournal(j, lsn); err != nil {
		return err
	}
	return j.Checkpoint()
}

// saveAllocState records the id allocators' high-water marks and the name
// dictionary on the meta page, and the dictionary again in its chain record
// when it has grown. Every flush calls it before it writes pages back, so a
// name is logged in the same WAL batch as the first page that uses its id.
// It skips the write when nothing has moved since the last save: a flush
// that follows another writer's flush then dirties nothing, stages nothing,
// and only waits for the fsync already under way.
func (s *Store) saveAllocState() error {
	names := s.dict.Len()
	if s.savedID == s.nextID && s.savedRange == s.nextRange && s.savedNames == names {
		return nil
	}
	if s.savedNames != names || s.scratch.meta == nil {
		s.scratch.meta = s.dict.AppendTable(append(s.scratch.meta[:0], make([]byte, allocStateSize)...))
	}
	if s.savedNames != names {
		if err := s.saveDictRecord(s.scratch.meta[allocStateSize:]); err != nil {
			return err
		}
	}
	appendAllocState(s.scratch.meta[:0], s.nextID, s.nextRange) // over the marks, in place
	if err := s.recs.SetUserMeta(s.scratch.meta); err != nil {
		return err
	}
	s.savedID, s.savedRange, s.savedNames = s.nextID, s.nextRange, names
	return nil
}

// saveDictRecord writes the dictionary's chain record, whose body is table:
// first in the chain when it is new, in place after that.
func (s *Store) saveDictRecord(table []byte) error {
	rec := encodeDictRecord(table)
	var loc pagestore.Loc
	var moves []pagestore.Move
	var err error
	if s.dictLoc.IsNil() {
		loc, moves, err = s.recs.InsertFirst(rec)
	} else {
		loc, moves, err = s.recs.Update(s.dictLoc, rec)
	}
	if err != nil {
		return err
	}
	err = s.applyMoves(moves)
	s.dictLoc = loc
	return err
}

// Close flushes and shuts down the store. A degraded (read-only) store
// closes without writing anything: its dirty pages are suspect, and the
// on-disk state plus WAL recovery are the source of truth.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.gen.Add(1) // whatever a running fill publishes after this is stale
	s.plans.Reset()
	if s.cfg.ReadOnly {
		// Nothing was (or could be) written; just release the pager and
		// its shared advisory lock.
		return s.pool.Pager().Close()
	}
	if ro, _ := s.ReadOnly(); ro {
		// The operation that degraded the store already reported the
		// corruption; closing the file handles is all that is safe to do.
		return s.pool.Pager().Close()
	}
	if err := s.saveAllocState(); err != nil {
		return err
	}
	return s.pool.Close()
}

// Mode returns the active index mode.
func (s *Store) Mode() IndexMode { return s.cfg.Mode }

// PlanCache returns the store's compiled-plan cache (nil when disabled).
// The query packages key it by expression source; core stays agnostic to
// what the values are.
func (s *Store) PlanCache() *plancache.Cache { return s.plans }

// QueryCounters counts query-planner outcomes. The query layer (which runs
// outside the store lock) bumps these through the accessor; Stats snapshots
// them.
type QueryCounters struct {
	pushdownQueries    atomic.Uint64
	pushdownPredicates atomic.Uint64
	fallbackQueries    atomic.Uint64
	// The lazy value index, see Stats.ValueIndex*.
	valueHits, valueMisses, valueFills, valueAbandoned atomic.Uint64
}

// ValueIndexKeyPrefix is the plan-cache key prefix of the query layer's value
// tables and shape markers; Stats.ValueIndexBytes is what is cached under it.
const ValueIndexKeyPrefix = "vx:"

// NoteValueHit counts one probe-shape query answered from a value table.
func (q *QueryCounters) NoteValueHit() { q.valueHits.Add(1) }

// NoteValueMiss counts one probe-shape query answered by a scan; filled says
// the scan built a value table, abandoned that it gave the table up mid-scan.
func (q *QueryCounters) NoteValueMiss(filled, abandoned bool) {
	q.valueMisses.Add(1)
	if filled {
		q.valueFills.Add(1)
	}
	if abandoned {
		q.valueAbandoned.Add(1)
	}
}

// NotePushdown counts one query answered by a pushed-down index/scan probe
// that evaluated npreds predicates inside the scan.
func (q *QueryCounters) NotePushdown(npreds int) {
	q.pushdownQueries.Add(1)
	if npreds > 0 {
		q.pushdownPredicates.Add(uint64(npreds))
	}
}

// NoteFallback counts one query that fell back to the materializing
// evaluator.
func (q *QueryCounters) NoteFallback() { q.fallbackQueries.Add(1) }

// QueryCounters returns the store's query-outcome counters for the query
// layer to bump.
func (s *Store) QueryCounters() *QueryCounters { return &s.query }

// OpContext applies the store's configured OpTimeout to ctx (when ctx has no
// deadline of its own) for work that runs outside a store operation — query
// evaluation over an already-materialized view. The returned cancel must be
// called.
func (s *Store) OpContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.OpTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			d := newDeadlineCtx(ctx, s.cfg.OpTimeout)
			return d, func() { d.end(context.Canceled) }
		}
	}
	return ctx, func() {}
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Ranges:            s.rindex.Len() + len(s.idless),
		RangeIndexEntries: s.rindex.Len(),
		RangeIndexBytes:   s.rangeTableBytes(),
		Nodes:             s.nodes,
		Tokens:            s.tokens,
		Bytes:             s.bytes,
		Inserts:           s.inserts,
		Deletes:           s.deletes,
		Splits:            s.splits,
		Merges:            s.merges,
		TokensScanned:     s.tokensScanned.Load(),
		NodeLookups:       s.nodeLookups.Load(),
		RangeBytesRead:    s.rangeBytesRead.Load(),
		NameIDs:           s.dict.Len(),
		Pool:              s.pool.Stats(),
		Placement:         s.recs.PlaceStats(),
	}
	if s.full != nil {
		st.FullIndexEntries = s.full.len()
	}
	if s.partial != nil {
		st.PartialEntries = s.partial.len()
		st.PartialHits = s.partial.stats.hits.Load()
		st.PartialMisses = s.partial.stats.misses.Load()
		st.PartialEvictions = s.partial.stats.evictions.Load()
		st.PartialInvalidations = s.partial.stats.invalidations.Load()
	}
	ps := s.plans.Snapshot()
	st.PlanCacheEntries = ps.Entries
	st.PlanCacheBytes = ps.Bytes
	st.PlanCacheHits = ps.Hits
	st.PlanCacheMisses = ps.Misses
	st.PlanCacheEvictions = ps.Evictions
	st.PushdownQueries = s.query.pushdownQueries.Load()
	st.PushdownPredicates = s.query.pushdownPredicates.Load()
	st.FallbackQueries = s.query.fallbackQueries.Load()
	st.ValueIndexHits = s.query.valueHits.Load()
	st.ValueIndexMisses = s.query.valueMisses.Load()
	st.ValueIndexFills = s.query.valueFills.Load()
	st.ValueIndexAbandoned = s.query.valueAbandoned.Load()
	st.ValueIndexBytes = s.plans.BytesUnder(ValueIndexKeyPrefix)
	st.Admission = s.adm.snapshot()
	st.Memory = s.budget.Snapshot()
	st.Health = s.healthSummary(st.Memory)
	if as, ok := s.pool.Pager().(interface{ ArchiveStats() (int, int64) }); ok {
		st.ArchiveSegments, st.ArchiveBytes = as.ArchiveStats()
	}
	if hw, ok := s.pool.Pager().(interface {
		Archiving() bool
		LSN() uint64
	}); ok && hw.Archiving() {
		st.ArchiveLSN = hw.LSN()
	}
	if js, ok := s.pool.Pager().(interface {
		JournalStats() (commits, syncs, checkpoints, failedCheckpoints uint64, logBytes int64, logged, logSyncs, ckptWaits uint64)
	}); ok {
		st.WALCommits, st.WALSyncs, st.WALCheckpoints, st.WALCheckpointFailures, st.WALLogBytes, st.WALLoggedBytes, st.WALLogSyncs, st.WALCheckpointWaits = js.JournalStats()
	}
	return st
}

// ArchiveDir returns the WAL segment archive directory backing this store,
// or "" when the pager does not archive — the directory a replication
// source serves segments from.
func (s *Store) ArchiveDir() string {
	if ad, ok := s.pool.Pager().(interface{ ArchiveDir() string }); ok {
		return ad.ArchiveDir()
	}
	return ""
}

// Health returns the explicit health summary on its own — cheaper than a
// full Stats snapshot, and safe on a degraded store.
func (s *Store) Health() HealthSummary {
	return s.healthSummary(s.budget.Snapshot())
}

func (s *Store) healthSummary(mem budget.Stats) HealthSummary {
	h := HealthSummary{ReadOnly: s.cfg.ReadOnly}
	if s.cfg.ReadOnly {
		h.ReadOnlyCause = "opened read-only"
	}
	if degraded, cause := s.ReadOnly(); degraded {
		h.Degraded = true
		h.ReadOnly = true
		h.ReadOnlyCause = cause.Error()
	}
	if mem.Limit > 0 {
		h.BudgetPressure = float64(mem.Used) / float64(mem.Limit)
	}
	return h
}

// allocIDs reserves n contiguous node ids and returns the first.
func (s *Store) allocIDs(n int) NodeID {
	start := s.nextID
	s.nextID += NodeID(n)
	return start
}

func (s *Store) allocRangeID() RangeID {
	id := s.nextRange
	s.nextRange++
	return id
}

// register installs a rangeInfo into the live-range table and counters.
func (s *Store) register(ri *rangeInfo) {
	if ri.nodes > 0 {
		s.rindex.Set(uint64(ri.start), ri)
	} else {
		s.idless[ri.id] = ri
	}
	s.nodes += uint64(ri.nodes)
	s.tokens += uint64(ri.toks)
	s.bytes += uint64(ri.bytes)
}

// unregister removes a rangeInfo from the live-range table and counters, and
// bumps its version so that nothing learned under it validates again. The
// record itself is deleted by the caller.
func (s *Store) unregister(ri *rangeInfo) {
	if ri.nodes > 0 {
		s.rindex.Delete(uint64(ri.start))
	} else {
		delete(s.idless, ri.id)
	}
	ri.version++
	s.nodes -= uint64(ri.nodes)
	s.tokens -= uint64(ri.toks)
	s.bytes -= uint64(ri.bytes)
}

// tableRange returns the live range id: from the id-less map, else by its
// start id. Nil when it has left the table.
func (s *Store) tableRange(id RangeID, start NodeID) *rangeInfo {
	if ri := s.idless[id]; ri != nil {
		return ri
	}
	if ri, ok := s.rindex.Get(uint64(start)); ok && ri.id == id {
		return ri
	}
	return nil
}

// rangeOf returns the live range whose interval holds node id.
func (s *Store) rangeOf(id NodeID) (*rangeInfo, bool) {
	_, ri, ok := s.rindex.Floor(uint64(id))
	return ri, ok && id <= ri.end()
}

// rangeTableBytes is the live-range table's heap: a rangeInfo per range, the
// range index's nodes, the id-less map's slots at its 7/8 maximum load.
func (s *Store) rangeTableBytes() int64 {
	slot := int64(unsafe.Sizeof(NodeID(0))+unsafe.Sizeof(&rangeInfo{})+1) * 8 / 7
	return int64(s.rindex.Len()+len(s.idless))*int64(unsafe.Sizeof(rangeInfo{})) + s.rindex.Bytes() + int64(len(s.idless))*slot
}

// applyMoves repairs range and dictionary record locations after page
// splits: the moved record's header names its range.
func (s *Store) applyMoves(moves []pagestore.Move) error {
	for _, m := range moves {
		if m.From == s.dictLoc {
			s.dictLoc = m.To
			continue
		}
		ri, err := s.recordRange(context.Background(), m.To, m.From)
		if err != nil {
			return err
		}
		ri.loc = m.To
	}
	return nil
}

// nextRangeInfo returns the range following ri in document order; a read
// walking many ranges under one deadline passes ctx for the step to observe.
func (s *Store) nextRangeInfo(ctx context.Context, ri *rangeInfo) (*rangeInfo, bool, error) {
	loc, ok, err := s.recs.Next(ri.loc)
	return s.rangeAt(ctx, loc, ok, err, s.recs.Next)
}

// prevRangeInfo returns the range preceding ri in document order.
func (s *Store) prevRangeInfo(ri *rangeInfo) (*rangeInfo, bool, error) {
	loc, ok, err := s.recs.Prev(ri.loc)
	return s.rangeAt(context.Background(), loc, ok, err, s.recs.Prev)
}

// firstRange returns the first range in document order.
func (s *Store) firstRange() (*rangeInfo, bool, error) {
	loc, ok, err := s.recs.First()
	return s.rangeAt(context.Background(), loc, ok, err, s.recs.Next)
}

// rangeAt returns the range of the chain record at loc (as a chain walk
// returned it), taking one more step past the dictionary's record.
func (s *Store) rangeAt(ctx context.Context, loc pagestore.Loc, ok bool, err error, step func(pagestore.Loc) (pagestore.Loc, bool, error)) (*rangeInfo, bool, error) {
	if err == nil && ok && loc == s.dictLoc {
		loc, ok, err = step(loc)
	}
	if err != nil || !ok {
		return nil, false, err
	}
	ri, err := s.recordRange(ctx, loc, loc)
	return ri, err == nil, err
}

// recordRange returns the range of the record now at loc, which the table
// has at was: the record header names it.
func (s *Store) recordRange(ctx context.Context, loc, was pagestore.Loc) (*rangeInfo, error) {
	var hdr [rangeHeaderSize]byte
	b, err := s.recs.ReadSlice(ctx, loc, 0, rangeHeaderSize, hdr[:0], nil)
	if err != nil {
		return nil, err
	}
	id, start, nodes, _, _, _ := decodeRangeHeader(b) // b is a whole header
	if ri := s.tableRange(id, start); ri != nil && ri.nodes == nodes && ri.loc == was {
		return ri, nil
	}
	return nil, fmt.Errorf("core: record at %v (range %d) has no range info", loc, id)
}

// Dict returns the store's name dictionary: decode the raw tokens of
// ScanRawCtx and ScanNodeRawCtx through it. It is the same object for the
// store's life.
func (s *Store) Dict() *token.Dict { return s.dict }

// writeRangeRecord rewrites ri's record after its content changed, fixing
// record locations for any relocations, and bumps the range version.
func (s *Store) writeRangeRecord(ri *rangeInfo, tokenBytes []byte) error {
	s.scratch.rec = append(appendRecordRoom(s.scratch.rec[:0]), tokenBytes...)
	rec := encodeRangeRecord(s.scratch.rec, ri.id, ri.start, ri.nodes, ri.toks)
	newLoc, moves, err := s.recs.Update(ri.loc, rec)
	if err != nil {
		return err
	}
	err = s.applyMoves(moves) // ri is not among them: its record is the one replaced
	ri.loc = newLoc
	ri.version++
	return err
}

// Package wal adds write-ahead logging to the page store, making flushes
// atomic and durable: a batch of page writes either survives a crash
// completely or not at all, no matter where the crash lands.
//
// The protocol is physical page logging into a ring-shaped log, leader/
// follower group commit, and a checkpoint that folds the log into the page
// file in the background:
//
//   - WritePage holds the page image in a pending set (reads see it).
//   - Stage serialises the pending set as one batch — one record per page
//     plus a commit record carrying the batch's LSN and page count — at the
//     log's tail and moves the images into an overlay of staged-but-unapplied
//     pages that ReadPage consults before the page file.
//   - A page record is a full image (recPage) or a delta (recDelta): the
//     byte runs where the new image differs from the image the overlay
//     already holds, each run carrying its absolute bytes. A page's first
//     record after a checkpoint's snapshot is always a full image, and so is
//     a fresh page or a delta that would outgrow half a page. Every delta's
//     base is therefore an image logged after the log's start, and a torn
//     page-file write during a checkpoint is repaired by replay, never
//     patched. Because runs hold absolute bytes, applying a delta to the
//     page before its batch, to the page after it, or to any byte-wise mix of
//     the two (a torn write) gives the page after it.
//   - Sync(lsn) makes the batch durable. The first caller becomes the
//     leader: it issues one log fsync for every batch staged so far, writes
//     their archive segments, and wakes the callers whose batches it
//     covered; callers arriving meanwhile wait, and one of them leads the
//     next round. There is no timer and no queue-depth knob: a group is
//     whatever was staged while the previous fsync ran. That fsync is the
//     commit point, and the only I/O an acknowledgement waits for.
//   - A checkpoint folds the log into the page file in three steps. Under
//     mu it takes a snapshot: the overlay images of every batch up to the
//     staged LSN L, and the tail offset batch L+1 goes to. Then, holding
//     neither mu nor the leader section, it makes batches up to L durable,
//     writes the snapshot in page order — written back to the device a few
//     pages at a time, so that a log fsync beside it queues behind little —
//     and fsyncs the page file, while commits keep staging and syncing.
//     Last it writes a start record naming
//     that offset and L+1, fsyncs it as the leader, and under mu drops the
//     overlay entries no later batch replaced, releases the frees staged at
//     or before L and moves the ring's head past L. The leader starts one
//     once the log outgrows 1/checkpointFraction of the page file; at most
//     one runs at a time; Checkpoint and Close run one and wait for it. A
//     checkpoint that fails after its page-file fsync still drops the
//     overlay entries it wrote, since its start record may be durable; it
//     leaves the head and the frees.
//   - The log is a ring, overwritten rather than regrown. Two start-record
//     slots at offset 0 alternate, so a torn start record leaves the one
//     before it; the batches follow from ringBase. The tail extends the file
//     up to the log's share plus a quarter — slack for the commits that
//     arrive while a checkpoint runs — and past it wraps back to ringBase
//     when the space the head has left behind holds the batch. A commit
//     waits for a checkpoint only when the ring is full. The file grows past
//     that span only for a batch into an empty ring and while checkpoints
//     fail; a ring that has wrapped cannot grow, so a commit that finds it
//     full while checkpoints fail fails. A checkpoint that leaves nothing
//     live rewinds the tail to ringBase and cuts back a file a bulk load grew
//     past twice the share; Close truncates it to zero and Open starts a
//     fresh one. The log is synced with fdatasync where the OS has it.
//   - Free is deferred the same way: the page goes back to the page file's
//     allocator only at the first checkpoint whose snapshot covers the batch
//     that staged the free. Until then its last staged image stays in the
//     overlay and is checkpointed like any other, and the id cannot be
//     reused.
//   - Recovery on open replays the log's batches in order into the page
//     file and removes the log. It starts at the newer valid start record
//     and reads batches from its offset; where a read fails it goes on once
//     at ringBase, where a wrapped tail continues. Replay ends at the first
//     batch that is torn or whose commit LSN is not the next — the start
//     record's LSN first — so what an earlier lap left past the tail reads
//     as a torn tail and is never applied. A log written before the ring (a
//     lap header at offset 0, or batches from offset 0) replays as it did.
//
// Invariants:
//
//   - Acknowledged implies log-durable: Sync(lsn) returns nil only after a
//     log fsync that began after batch lsn was written.
//   - Page file plus log is the truth; the page file alone is not. Between
//     checkpoints the page file lacks every commit since the last one, and
//     during a checkpoint it may hold half of them. Readers of a store at
//     rest go through OpenReadOnly, never through the raw file.
//   - A page image reaches the page file only after the log fsync covering
//     it, so a failed or interrupted checkpoint never un-commits anything.
//   - A staged image leaves the overlay only into the page file: an entry is
//     dropped only once the page file's fsync covers it, and only if no batch
//     after the snapshot replaced it. Freeing a page does not exempt it — the
//     free itself may never commit. A buffer a running checkpoint is writing
//     is never recycled.
//   - No byte of the ring that the durable start record keeps live is
//     overwritten: the head moves only after the new start record's fsync,
//     and a batch goes only where neither start record could still reach.
//     A crash before that fsync replays from the older start, over a log
//     still whole from there; replay is idempotent.
//   - A freed page is reused only after a checkpoint that followed the
//     fsync of the batch unreferencing it, so the allocator's zero-fill never
//     lands on a page the durable tree still points at.
//   - An archive segment is written only after the log fsync covering its
//     batch: a replica tailing the archive never gets ahead of the
//     primary's durable log.
//   - LSNs are gap-free: a batch takes the next number only once its bytes
//     are in the log.
//   - Overlay bytes ≤ live log bytes ≤ the ring's span (plus a batch into
//     an empty ring, and what is logged while checkpoints fail): every
//     overlay entry got there through a full image logged since the log's
//     start, so deltas shrink the log without unbounding the overlay.
//
// Every record carries a CRC so torn log writes are detected, and the
// commit record carries the batch page count so a torn batch is never
// replayed.
package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/pagestore"
)

// Log record types.
const (
	recPage   = 1 // a full page image
	recCommit = 2
	recDelta  = 3 // runs of (uvarint offset, uvarint length, bytes) over the page's previous image
	recLap    = 4 // lap header at offset 0 of a log written before the ring: the LSN its first batch commits at
	recStart  = 5 // start record in one of the two slots: the offset and LSN of the first live batch
)

// record layout: type(1) pageID(4) length(4) payload crc32(4)
// commit records have pageID = batch page count (page and delta records
// alike) and an 8-byte payload carrying the batch's commit LSN (legacy logs
// have an empty payload and LSN 0, which disables archiving for that batch).
const recHeader = 1 + 4 + 4

// startRecord is the size of a start record: its payload is an offset and
// an LSN. Its two slots sit at offsets 0 and startRecord, and the ring's
// batches begin at ringBase, behind them.
const (
	startRecord = recHeader + 16 + 4
	ringBase    = 2 * startRecord
)

// deltaGap is the shortest run of equal bytes that splits a delta into two
// runs: a shorter gap costs less logged as part of the run than as the
// header of another.
const deltaGap = 4

// checkpointFraction sizes the lazy checkpoint: a checkpoint starts once the
// live log outgrows 1/checkpointFraction of the page file. The benchmark's
// disk_bytes_per_user_byte counts page file plus log and sits between 0.96
// and 1.44 across the workloads; a log of 1/32 of the page file raises it by
// about 0.035. A single-order insert logs its pages as deltas once they are
// in the overlay, so it gets tens of commits per checkpoint on a store of a
// few thousand orders, and proportionally more as the store grows.
const checkpointFraction = 32

// writeBackBurst is how many snapshot pages a checkpoint writes before it
// writes them back to the device and waits (pagestore's WriteBack). A log
// fsync issued meanwhile then queues behind at most one burst on a shared
// device, not behind the whole snapshot at the page file's fsync: on
// `ingest` that took the p99 of single-order inserts from 0.84 to 0.62 ms
// (EXPERIMENTS E26).
const writeBackBurst = 8

// maxCheckpointBackoff caps how many commits a failing checkpoint is left
// alone for before the next attempt.
const maxCheckpointBackoff = 1024

// Journal errors.
var (
	ErrClosed = errors.New("wal: journaled pager is closed")
)

// InnerPager is what the journal needs from the page file below it: raw
// paged I/O plus durable flushing. *pagestore.FilePager satisfies it; fault
// injection wraps it.
type InnerPager interface {
	pagestore.Pager
	Sync() error
}

// File is the subset of *os.File operations the journal performs on its
// sidecar log. Fault injection wraps it to exercise crash and torn-write
// behavior at every log I/O boundary.
type File interface {
	io.WriterAt
	io.Reader
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Default bounded-retry policy for transient commit errors.
const (
	defaultRetries = 3
	defaultBackoff = 500 * time.Microsecond
)

// Options tunes a journaled pager. The zero value gives the default
// behavior: unwrapped I/O and a small bounded retry with exponential
// backoff for transient commit errors.
type Options struct {
	// WrapPager, when set, wraps the inner page-file pager (fault injection
	// in tests). It is applied after recovery has run. A checkpoint calls
	// the wrapper's WritePage and Sync from a goroutine of its own, beside
	// readers and committers.
	WrapPager func(InnerPager) InnerPager
	// WrapLog, when set, wraps the sidecar log file.
	WrapLog func(File) File
	// ArchiveDir, when set, archives every committed batch as a numbered
	// segment file in that directory — the raw material of point-in-time
	// restore. A segment is written and fsynced after the log fsync that
	// makes its batch durable and before Sync acknowledges the batch, so the
	// archive never names an LSN the log could still lose. A crash between
	// the two is repaired on the next open: recovery re-archives every
	// replayed batch under its logged LSN.
	ArchiveDir string
	// WrapSegment, when set, wraps archive segment files (fault injection).
	WrapSegment func(File) File
	// MinLSN floors the commit counter: the first commit of this pager gets
	// at least MinLSN+1, even when recovery and the archive high-water mark
	// say less. A promoted replica uses it — its page image already
	// contains every commit up to the applied LSN, but its local archive
	// may hold fewer segments (or none, right after bootstrap), and letting
	// the counter restart below the applied point would reuse LSNs the
	// history has already assigned.
	MinLSN uint64
	// Retries bounds how often a transient commit-path error is retried.
	// 0 means the default (3); negative disables retrying.
	Retries int
	// Backoff is the initial retry backoff, doubled per attempt.
	// 0 means the default (500µs).
	Backoff time.Duration
}

// Pager wraps a page file with write-ahead logging. It implements
// pagestore.Pager; page writes are buffered until Stage.
//
// The pager is safe for concurrent use — the sharded buffer pool above it
// issues reads (and eviction write-backs) from several lock stripes at
// once, and several committers call Sync at once. Reads of the pending set
// and the overlay share mu; mutations (Allocate, WritePage, Free, Stage, a
// checkpoint's snapshot and finish, DiscardPending, Close) take it
// exclusively. The group-commit state has its own lock, syncMu, always taken
// after mu and never held across I/O; the log fsync itself runs under
// neither, so staging overlaps it, and so does a checkpoint's page-file I/O.
type Pager struct {
	mu         sync.RWMutex
	inner      InnerPager
	file       *pagestore.FilePager // inner, unwrapped: the page file's extent
	walPath    string
	wal        File
	pending    map[pagestore.PageID][]byte // written since the last Stage
	order      []pagestore.PageID
	overlay    map[pagestore.PageID]staged   // staged in the log, not yet in the page file
	freed      map[pagestore.PageID]uint64   // freed, not yet released to inner: the LSN the free was staged with, or unstaged
	fresh      map[pagestore.PageID]struct{} // allocated since the last Stage: in no batch, referenced by nothing staged
	logEnd     int64                         // ring tail: where the next batch goes
	head       int64                         // offset of the first batch the durable start record keeps live
	wrapEnd    int64                         // end of the ring's upper part once the tail has wrapped to ringBase; 0 when it has not
	fileEnd    int64                         // the log file's size
	slot       int                           // the start-record slot the next checkpoint writes
	buf        []byte
	spare      sync.Pool   // page buffers the overlay gave up, for WritePage to reuse (recycle)
	snapshot   []PageImage // the last checkpoint's page list, for the next one's
	retries    int
	backoff    time.Duration
	archiveDir string
	wrapSeg    func(File) File
	closed     bool

	// ckpt is the running checkpoint (nil when none runs); ckptDone, on mu,
	// is broadcast when one ends. After a failed checkpoint (its error in
	// ckptErr) the journal lets ckptWait due checkpoints pass before trying
	// again, doubling ckptBackoff up to maxCheckpointBackoff. All of them are
	// guarded by mu.
	ckpt                  *checkpoint
	ckptDone              *sync.Cond
	ckptBackoff, ckptWait int
	ckptErr               error

	syncMu     sync.Mutex
	syncCond   *sync.Cond
	leading    bool      // a goroutine is inside the fsync / archive section
	staged     uint64    // LSN of the last batch in the log (written under mu and syncMu)
	synced     uint64    // batches up to here are fsynced and archived: the acknowledged prefix
	unarchived []segment // staged batches still owed an archive segment, LSN ascending

	commits, syncs, logSyncs, checkpoints, ckptFailures, ckptWaits, logged atomic.Uint64
}

// staged is an overlay entry: a page's newest staged image and the LSN of
// the batch that logged it.
type staged struct {
	img []byte
	lsn uint64
}

// unstaged marks a free no batch has staged yet.
const unstaged = math.MaxUint64

// checkpoint is one fold of the log into the page file: the overlay images
// of every batch up to lsn, and the offset batch lsn+1 goes to (or wraps
// from).
type checkpoint struct {
	lsn     uint64
	tail    int64
	wrapped bool // the ring had wrapped when the snapshot was taken: tail is in its lower part
	pages   []PageImage
	written bool // the page file's fsync covers pages
	err     error
}

// holds reports whether e is an image the running checkpoint c is writing
// (c may be nil): only a batch staged after the snapshot replaces one.
func (c *checkpoint) holds(e staged) bool { return c != nil && e.lsn <= c.lsn }

// segment is one staged batch's log bytes, kept until its archive segment
// is written.
type segment struct {
	lsn  uint64
	data []byte
}

// Open opens (creating if needed) a journaled page file. Any complete
// batches left in the sidecar log <path>.wal are replayed first.
func Open(path string, pageSize int) (*Pager, error) {
	return OpenWithOptions(path, pageSize, Options{})
}

// OpenWithOptions is Open with fault-injection wrappers and retry tuning.
func OpenWithOptions(path string, pageSize int, opt Options) (*Pager, error) {
	walPath := path + ".wal"
	replayedLSN, err := recover_(path, walPath, pageSize, opt.ArchiveDir, opt.WrapSegment)
	if err != nil {
		return nil, err
	}
	lsn := replayedLSN
	if opt.ArchiveDir != "" {
		archived, err := MaxArchivedLSN(opt.ArchiveDir)
		if err != nil {
			return nil, err
		}
		if archived > lsn {
			lsn = archived
		}
	}
	if opt.MinLSN > lsn {
		lsn = opt.MinLSN
	}
	fp, err := pagestore.OpenFilePager(path, pageSize)
	if err != nil {
		return nil, err
	}
	var inner InnerPager = fp
	if opt.WrapPager != nil {
		inner = opt.WrapPager(inner)
	}
	wf, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		inner.Close()
		return nil, err
	}
	var wal File = logFile{wf}
	if opt.WrapLog != nil {
		wal = opt.WrapLog(wal)
	}
	retries := opt.Retries
	switch {
	case retries == 0:
		retries = defaultRetries
	case retries < 0:
		retries = 0
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	p := &Pager{
		inner:      inner,
		file:       fp,
		walPath:    walPath,
		wal:        wal,
		pending:    make(map[pagestore.PageID][]byte),
		overlay:    make(map[pagestore.PageID]staged),
		freed:      make(map[pagestore.PageID]uint64),
		fresh:      make(map[pagestore.PageID]struct{}),
		logEnd:     ringBase,
		head:       ringBase,
		retries:    retries,
		backoff:    backoff,
		staged:     lsn,
		synced:     lsn,
		archiveDir: opt.ArchiveDir,
		wrapSeg:    opt.WrapSegment,
	}
	p.syncCond = sync.NewCond(&p.syncMu)
	p.ckptDone = sync.NewCond(&p.mu)
	// The first start record needs no fsync of its own: the first commit's
	// log fsync makes it durable with the batch, and a crash before that
	// leaves nothing acknowledged to replay.
	if err := p.writeStart(ringBase, lsn+1); err != nil {
		wal.Close()
		inner.Close()
		return nil, err
	}
	p.fileEnd, p.slot = ringBase, 1
	return p, nil
}

// recover_ replays complete batches from the log into the page file. When
// archiveDir is set, every replayed batch is (re-)archived under its logged
// LSN first — the batch was durable before the crash, so its segment must
// exist (a crash between the log fsync and the segment write would
// otherwise leave a gap in the archive). It returns the highest LSN
// replayed (0 when the log was empty or pre-LSN).
func recover_(path, walPath string, pageSize int, archiveDir string, wrapSeg func(File) File) (uint64, error) {
	data, err := os.ReadFile(walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(data) == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	applied := false
	_, lastLSN, err := replayLog(data, pageSize, func(batch []byte, pages []PageImage, lsn uint64) error {
		if archiveDir != "" && lsn != 0 {
			// The segment bytes are exactly the batch's log bytes.
			if err := WriteSegment(archiveDir, lsn, batch, wrapSeg); err != nil {
				return err
			}
		}
		for _, p := range pages {
			if _, err := f.WriteAt(p.Data, int64(p.ID)*int64(pageSize)); err != nil {
				return err
			}
		}
		applied = true
		return nil
	})
	if err != nil {
		return 0, err
	}
	if applied {
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return lastLSN, os.Remove(walPath)
}

// errTorn marks a record cut short or failing its CRC, or a batch with no
// commit record: the end of a log's complete batches, or a damaged segment.
var errTorn = errors.New("torn batch")

// readBatch parses the batch starting at data[pos] — page and delta records
// up to and including the commit record — and returns its full page images,
// each delta applied to the image base fills in, with the batch's commit
// LSN and the offset of the next batch. A commit record naming an LSN other
// than want (when want is not 0) ends an earlier lap's batch: that is
// errTorn, checked before anything else about the batch. Nothing is
// resolved until the commit record has been read and passed, so a torn
// batch never consults base. Full images alias data.
func readBatch(data []byte, pos, pageSize int, want uint64, base func(pagestore.PageID, []byte) error) (pages []PageImage, lsn uint64, next int, err error) {
	var deltas []int // indexes into pages whose Data still holds delta runs
	for {
		typ, id, payload, end, ok := readRecord(data, pos)
		if !ok {
			return nil, 0, 0, fmt.Errorf("%w at offset %d", errTorn, pos)
		}
		switch typ {
		case recPage:
			if len(payload) != pageSize {
				return nil, 0, 0, fmt.Errorf("page image of %d bytes, page size %d", len(payload), pageSize)
			}
		case recDelta:
			deltas = append(deltas, len(pages))
		case recCommit:
			if len(payload) == 8 {
				lsn = binary.LittleEndian.Uint64(payload)
			}
			if want != 0 && lsn != want {
				return nil, 0, 0, fmt.Errorf("%w: commit LSN %d at offset %d, want %d", errTorn, lsn, pos, want)
			}
			if int(id) != len(pages) {
				return nil, 0, 0, fmt.Errorf("commit names %d pages, batch has %d", id, len(pages))
			}
			for _, i := range deltas {
				if base == nil {
					return nil, 0, 0, fmt.Errorf("delta for page %d with nothing to apply it to", pages[i].ID)
				}
				img := make([]byte, pageSize)
				if err := base(pages[i].ID, img); err != nil {
					return nil, 0, 0, err
				}
				if err := applyDelta(img, pages[i].Data); err != nil {
					return nil, 0, 0, fmt.Errorf("delta for page %d: %w", pages[i].ID, err)
				}
				pages[i].Data = img
			}
			return pages, lsn, end, nil
		default:
			return nil, 0, 0, fmt.Errorf("unknown record type %d", typ)
		}
		pages = append(pages, PageImage{ID: pagestore.PageID(id), Data: payload})
		pos = end
	}
}

// replayLog resolves every complete batch of a sidecar log in order and
// hands each to apply (when set) with the batch's raw bytes. A delta is
// resolved against the page's image earlier in the same log — never
// against the page file, which a torn checkpoint may have left half
// written — and a delta with no such image is corruption. The walk starts
// where logStart says and ends at a torn batch or at one whose commit LSN
// is not the next; a ring's walk goes on once at ringBase first, where a
// wrapped tail continues. It returns the newest image of every page the log
// holds and the last commit LSN seen.
func replayLog(data []byte, pageSize int, apply func(batch []byte, pages []PageImage, lsn uint64) error) (map[pagestore.PageID][]byte, uint64, error) {
	images := make(map[pagestore.PageID][]byte)
	earlier := func(id pagestore.PageID, buf []byte) error {
		img, ok := images[id]
		if !ok {
			return fmt.Errorf("delta for page %d has no earlier image in the log", id)
		}
		copy(buf, img)
		return nil
	}
	pos, want, ring, err := logStart(data)
	if err != nil {
		return nil, 0, err
	}
	var lastLSN uint64
	for {
		pages, lsn, next, err := readBatch(data, pos, pageSize, want, earlier)
		if errors.Is(err, errTorn) {
			if !ring || pos == ringBase {
				break // torn tail: discard the rest
			}
			pos, ring = ringBase, false // the tail wrapped here; it wraps once per start record
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		if apply != nil {
			if err := apply(data[pos:next], pages, lsn); err != nil {
				return nil, 0, err
			}
		}
		for _, p := range pages {
			images[p.ID] = p.Data
		}
		lastLSN = max(lastLSN, lsn)
		if lsn != 0 { // a pre-LSN log's batches all commit at 0
			want = lsn + 1
		}
		pos = next
	}
	return images, lastLSN, nil
}

// logStart finds where a log's replay begins: the offset of its first live
// batch, the LSN that batch must commit at (0: whatever it names), and
// whether the log is a ring whose tail may have wrapped to ringBase. A ring
// starts at the valid start record with the higher LSN; a log written
// before the ring starts behind its lap header, or at offset 0 when it has
// none. A ring with neither start record valid has nothing durable in it.
func logStart(data []byte) (pos int, want uint64, ring bool, err error) {
	typ, _, payload, next, ok := readRecord(data, 0)
	switch {
	case ok && typ == recLap:
		if len(payload) != 8 {
			return 0, 0, false, fmt.Errorf("wal: lap header of %d bytes", len(payload))
		}
		return next, binary.LittleEndian.Uint64(payload), false, nil
	case ok && typ != recStart:
		return 0, 0, false, nil
	}
	pos = len(data)
	for s := 0; s < 2; s++ {
		typ, _, payload, _, ok := readRecord(data, s*startRecord)
		if !ok || typ != recStart {
			continue
		}
		if len(payload) != 16 {
			return 0, 0, false, fmt.Errorf("wal: start record of %d bytes", len(payload))
		}
		off, lsn := binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:])
		if off < ringBase || off > math.MaxInt {
			return 0, 0, false, fmt.Errorf("wal: start record names offset %d", off)
		}
		if lsn > want {
			pos, want, ring = int(off), lsn, true
		}
	}
	return pos, want, ring, nil
}

// writeStart writes the start record naming the batch at off, which commits
// at lsn, into the current slot (mu held, or the pager not yet shared). It
// is durable once a log fsync follows.
func (p *Pager) writeStart(off int64, lsn uint64) error {
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(off))
	binary.LittleEndian.PutUint64(payload[8:], lsn)
	rec := appendRecord(nil, recStart, 0, payload[:])
	return p.retry(func() error {
		_, err := p.wal.WriteAt(rec, int64(p.slot)*startRecord)
		return err
	})
}

// appendDelta appends to dst the runs where img differs from base, each as
// (uvarint offset, uvarint length, the run's bytes of img). A gap of fewer
// than deltaGap equal bytes does not end a run. It gives up, returning
// false, once the runs outgrow limit bytes.
func appendDelta(dst, base, img []byte, limit int) ([]byte, bool) {
	start := len(dst)
	for i := equalPrefix(base, img, 0); i < len(img); i = equalPrefix(base, img, i) {
		end := runEnd(base, img, i)
		dst = binary.AppendUvarint(dst, uint64(i))
		dst = binary.AppendUvarint(dst, uint64(end-i))
		dst = append(dst, img[i:end]...)
		if len(dst)-start > limit {
			return dst, false
		}
		i = end
	}
	return dst, true
}

// equalPrefix returns the first offset at or after i where a and b differ
// (len(b) if none). Most of a page is unchanged, so it skips equal 64-byte
// blocks with bytes.Equal first.
func equalPrefix(a, b []byte, i int) int {
	for i+64 <= len(b) && bytes.Equal(a[i:i+64], b[i:i+64]) {
		i += 64
	}
	for i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// runEnd returns where the run of differing bytes starting at i ends: at
// the first of deltaGap equal bytes, or at the end of the page less any
// equal bytes before it.
func runEnd(a, b []byte, i int) int {
	equal := 0
	for ; i < len(b); i++ {
		if a[i] != b[i] {
			equal = 0
		} else if equal++; equal == deltaGap {
			return i + 1 - deltaGap
		}
	}
	return len(b) - equal
}

// applyDelta overwrites img with the runs of a delta record.
func applyDelta(img, runs []byte) error {
	for len(runs) > 0 {
		off, n := binary.Uvarint(runs)
		if n <= 0 {
			return errors.New("corrupt run header")
		}
		length, m := binary.Uvarint(runs[n:])
		if m <= 0 {
			return errors.New("corrupt run header")
		}
		runs = runs[n+m:]
		if off > uint64(len(img)) || length > uint64(len(img))-off || length > uint64(len(runs)) {
			return fmt.Errorf("run of %d bytes at offset %d overruns the page", length, off)
		}
		copy(img[off:], runs[:length])
		runs = runs[length:]
	}
	return nil
}

// readRecord parses one record at pos. ok=false on truncation or CRC
// mismatch (a torn write).
func readRecord(data []byte, pos int) (typ byte, id uint32, payload []byte, next int, ok bool) {
	if pos+recHeader > len(data) {
		return 0, 0, nil, 0, false
	}
	typ = data[pos]
	id = binary.LittleEndian.Uint32(data[pos+1:])
	length := int(binary.LittleEndian.Uint32(data[pos+5:]))
	end := pos + recHeader + length + 4
	if length < 0 || end > len(data) {
		return 0, 0, nil, 0, false
	}
	payload = data[pos+recHeader : pos+recHeader+length]
	want := binary.LittleEndian.Uint32(data[end-4:])
	if crc32.ChecksumIEEE(data[pos:end-4]) != want {
		return 0, 0, nil, 0, false
	}
	return typ, id, payload, end, true
}

// appendRecord appends one record to dst.
func appendRecord(dst []byte, typ byte, id uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(beginRecord(dst, typ, id), payload...)
	return endRecord(dst, start)
}

// beginRecord appends a record header whose length endRecord fills in.
func beginRecord(dst []byte, typ byte, id uint32) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, id)
	return append(dst, 0, 0, 0, 0)
}

// endRecord completes the record that starts at dst[start].
func endRecord(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+5:], uint32(len(dst)-start-recHeader))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendCommit appends the commit record of an n-page batch at lsn.
func appendCommit(dst []byte, n int, lsn uint64) []byte {
	var l [8]byte
	binary.LittleEndian.PutUint64(l[:], lsn)
	return appendRecord(dst, recCommit, uint32(n), l[:])
}

// appendPage logs one pending page (mu held): as a delta against the image
// the overlay holds when there is one, the running checkpoint is not
// writing it, and the delta fits in half a page; else as a full image. The
// checkpoint moves the log's start past the batch that logged its images,
// so a delta against one would have no base in the log it leaves.
func (p *Pager) appendPage(id pagestore.PageID, img []byte) {
	if base, ok := p.overlay[id]; ok && !p.ckpt.holds(base) {
		start := len(p.buf)
		var fits bool
		if p.buf, fits = appendDelta(beginRecord(p.buf, recDelta, uint32(id)), base.img, img, len(img)/2); fits {
			p.buf = endRecord(p.buf, start)
			return
		}
		p.buf = p.buf[:start]
	}
	p.buf = appendRecord(p.buf, recPage, uint32(id), img)
}

// PageSize implements pagestore.Pager.
func (p *Pager) PageSize() int { return p.inner.PageSize() }

// Allocate implements pagestore.Pager. Allocations go straight to the inner
// pager: an allocated-but-uncommitted page is harmless after a crash. The
// id is remembered as fresh until the next Stage, so that freeing it again
// within the same transaction can skip the wait Free imposes on pages a
// staged batch may reference.
func (p *Pager) Allocate() (pagestore.PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return pagestore.InvalidPage, ErrClosed
	}
	id, err := p.inner.Allocate()
	if err == nil {
		p.fresh[id] = struct{}{}
	}
	return id, err
}

// ReadPage implements pagestore.Pager, seeing the newest image of the page:
// pending (unstaged), then staged but not yet checkpointed, then the page
// file. Concurrent reads share the lock; the inner pager serializes its own
// I/O.
func (p *Pager) ReadPage(id pagestore.PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if _, ok := p.freed[id]; ok {
		return fmt.Errorf("%w: %d", pagestore.ErrFreedPage, id)
	}
	if img, ok := p.pending[id]; ok {
		copy(buf, img)
		return nil
	}
	if e, ok := p.overlay[id]; ok {
		copy(buf, e.img)
		return nil
	}
	return p.inner.ReadPage(id, buf)
}

// WritePage implements pagestore.Pager: the write is held pending until
// Stage logs it.
func (p *Pager) WritePage(id pagestore.PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if _, ok := p.freed[id]; ok {
		return fmt.Errorf("%w: %d", pagestore.ErrFreedPage, id)
	}
	img, ok := p.pending[id]
	if !ok {
		if b, ok := p.spare.Get().(*byte); ok {
			img = unsafe.Slice(b, p.inner.PageSize())
		} else {
			img = make([]byte, p.inner.PageSize())
		}
		p.pending[id] = img
		p.order = append(p.order, id)
	}
	clear(img[copy(img, buf):])
	return nil
}

// recycle hands a page buffer the overlay no longer holds to WritePage (mu
// held): every one, those a batch replaces and those a checkpoint gives back
// at its end (its snapshot's images, which a running checkpoint keeps while
// batches replace them), so WritePage allocates only for an overlay that
// outgrows what it held before. The spare buffers are a sync.Pool, so those
// left idle — once writes stop, say — go back to the collector. The pool
// holds a buffer by its first byte, which keeps the whole page alive and
// makes a Put allocate nothing; every image is one page long.
func (p *Pager) recycle(img []byte) {
	p.spare.Put(unsafe.SliceData(img))
}

// Free implements pagestore.Pager, lazily. The page's unstaged write is
// dropped, but the page file's allocator does not hear of the free yet, and
// a staged image of the page stays in the overlay. The free takes effect in
// two steps: Stage marks it committed along with the batch that stops
// referencing the page, and the first checkpoint whose snapshot covers that
// batch — which makes it durable and writes the overlay, this page's last
// image included — releases the id for reuse. A checkpoint in between
// (another writer's leader, repair, backup, or one already running)
// therefore sees an ordinary allocated page, and DiscardPending simply
// forgets the free. Until the release the id reads as freed and is never
// handed out again.
//
// The exception is a page allocated since the last Stage: no batch holds an
// image of it and nothing staged points at it, so it goes back to the
// allocator at once — a transaction that rewrites the same structure many
// times before it flushes keeps reusing its own scratch pages instead of
// growing the file.
func (p *Pager) Free(id pagestore.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if _, ok := p.freed[id]; ok {
		return fmt.Errorf("%w: %d", pagestore.ErrFreedPage, id)
	}
	delete(p.pending, id)
	if _, ok := p.fresh[id]; ok {
		delete(p.fresh, id)
		return p.inner.Free(id)
	}
	p.freed[id] = unstaged
	return nil
}

// PageCount implements pagestore.Pager: pages freed here but not yet
// released to the page file do not count.
func (p *Pager) PageCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.inner.PageCount() - len(p.freed)
}

// MaxPageID exposes the page file's scrub extent (checksum scrubs reach
// through the journal). It is read from the file pager itself, not through
// the WrapPager wrappers, which need not forward it.
func (p *Pager) MaxPageID() pagestore.PageID { return p.file.MaxPageID() }

// retry runs op, retrying transient failures (errors exposing a true
// Temporary() bool, the net.Error idiom) with bounded exponential backoff.
// Permanent errors — including simulated crashes — return immediately.
func (p *Pager) retry(op func() error) error {
	err := op()
	backoff := p.backoff
	for attempt := 0; err != nil && attempt < p.retries; attempt++ {
		var te interface{ Temporary() bool }
		if !errors.As(err, &te) || !te.Temporary() {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
		err = op()
	}
	return err
}

// Stage appends the pending page writes to the log's tail as one batch and
// returns the batch's LSN — the ticket to pass to Sync. It performs no
// fsync: the batch is visible to ReadPage (through the overlay) but not yet
// durable. With nothing pending it returns the LSN of the last staged batch,
// so Sync still waits for whatever an earlier Stage put in the log. A failed
// log write leaves the pending set intact (retryable) and the LSN unspent.
// When the ring has no room for the batch, Stage waits for a checkpoint to
// free some (starting one if none runs), and fails if that checkpoint does.
// While a failed checkpoint has the journal backing off, a Stage that finds
// the ring full fails at once instead, so that a page file that keeps
// failing is not charged a rewrite of the whole overlay per commit.
func (p *Pager) Stage() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stageLocked()
}

func (p *Pager) stageLocked() (uint64, error) {
	var waitedFor *checkpoint // the last checkpoint this Stage waited for room behind
	for {
		if p.closed {
			return 0, ErrClosed
		}
		if len(p.pending) == 0 {
			p.order = p.order[:0]
			p.stageFrees(p.staged)
			return p.staged, nil
		}
		// The batch is built afresh after every wait: a checkpoint that
		// ended meanwhile dropped delta bases, and writes may have joined.
		next := p.staged + 1
		p.buf = p.buf[:0]
		n := 0
		for _, id := range p.order {
			img, ok := p.pending[id]
			if !ok {
				continue // freed while pending
			}
			p.appendPage(id, img)
			n++
		}
		p.buf = appendCommit(p.buf, n, next)
		if off, ok := p.place(int64(len(p.buf))); ok {
			return next, p.appendBatch(off, next)
		}
		// The ring is full: this commit waits behind a checkpoint.
		if w := waitedFor; w != nil && w.err != nil && p.ckpt == nil {
			return 0, fmt.Errorf("wal: log full and its checkpoint failed: %w", w.err)
		}
		if p.ckpt == nil && p.ckptWait > 0 {
			p.ckptWait--
			return 0, fmt.Errorf("wal: log full while checkpoints back off: %w", p.ckptErr)
		}
		if waitedFor == nil {
			p.ckptWaits.Add(1)
		}
		if waitedFor = p.ckpt; waitedFor == nil {
			waitedFor = p.beginCheckpoint()
			go p.runCheckpoint(waitedFor)
		}
		p.ckptDone.Wait()
	}
}

// appendBatch writes the batch in p.buf at off and moves the pending images
// into the overlay (mu held).
func (p *Pager) appendBatch(off int64, next uint64) error {
	if err := p.retry(func() error {
		_, werr := p.wal.WriteAt(p.buf, off)
		return werr
	}); err != nil {
		return err
	}
	if off != p.logEnd {
		p.wrapEnd = p.logEnd
	}
	p.logEnd = off + int64(len(p.buf))
	p.fileEnd = max(p.fileEnd, p.logEnd)
	p.logged.Add(uint64(len(p.buf)))
	for id, img := range p.pending {
		if old, ok := p.overlay[id]; ok && !p.ckpt.holds(old) {
			p.recycle(old.img)
		}
		p.overlay[id] = staged{img: img, lsn: next}
	}
	clear(p.pending)
	p.order = p.order[:0]
	p.stageFrees(next)
	p.syncMu.Lock()
	p.staged = next
	if p.archiveDir != "" {
		p.unarchived = append(p.unarchived, segment{lsn: next, data: bytes.Clone(p.buf)})
	}
	p.syncMu.Unlock()
	return nil
}

// place picks the offset an n-byte batch goes to, or reports that the ring
// is full (mu held). Live bytes run from the head to the tail, through the
// wrap when there is one; a batch may go anywhere else. The tail extends the
// file up to the ring's span — the log's share plus a quarter of it, slack
// for the commits that arrive while a checkpoint runs — and past it wraps to
// ringBase when the batch fits in what the head has left behind. It extends
// the file past the span only into an empty ring, whatever the batch's size
// (a bulk load's can outgrow the ring), and while checkpoints are failing,
// when the log grows as it did before it was a ring.
func (p *Pager) place(n int64) (int64, bool) {
	switch {
	case p.wrapEnd != 0:
		return p.logEnd, p.logEnd+n <= p.head
	case p.logEnd+n <= max(p.fileEnd, ringBase+p.logShare()*5/4) || p.logEnd == p.head || p.ckptBackoff > 0:
		return p.logEnd, true
	}
	return ringBase, ringBase+n <= p.head
}

// stageFrees marks every free so far as committed with batch lsn (mu
// held): the first checkpoint whose snapshot covers lsn may release those
// pages. Pages allocated before this Stage are no longer fresh — the batch
// may hold them.
func (p *Pager) stageFrees(lsn uint64) {
	for id, at := range p.freed {
		if at == unstaged {
			p.freed[id] = lsn
		}
	}
	clear(p.fresh)
}

// Sync returns once batch lsn (a ticket from Stage) is durable: fsynced in
// the log and, when archiving, written to the archive. Concurrent callers
// share fsyncs — the first becomes the leader and syncs every batch staged
// so far, the rest wait and are woken as soon as a round covers them.
//
// Sync folds nothing. A leader whose round leaves the log past its share
// starts a checkpoint on a goroutine of its own, unless one is running, and
// returns without waiting for it. A checkpoint failure is not returned: every
// batch is already durable in the log and the overlay keeps serving reads.
// It is counted (JournalStats), retried after a doubling number of due
// commits — a page file that keeps failing must not cost every commit a
// rewrite of the whole overlay — and reported by Close if it persists. It
// fails commits only once the ring has wrapped and filled (Stage).
func (p *Pager) Sync(lsn uint64) error {
	led, err := p.syncTo(lsn)
	if led && err == nil {
		p.startDue()
	}
	return err
}

// syncTo returns once batch lsn is durable, leading a round when no round
// in flight covers it; led reports whether this call led one.
func (p *Pager) syncTo(lsn uint64) (led bool, err error) {
	p.syncMu.Lock()
	for p.synced < lsn && p.leading {
		p.syncCond.Wait()
	}
	if p.synced >= lsn {
		p.syncMu.Unlock()
		return false, nil
	}
	p.leading = true
	p.syncMu.Unlock()
	defer p.endLead()

	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return true, ErrClosed
	}
	return true, p.syncStaged(false)
}

// beginLead waits until no other goroutine is in the leader section, then
// enters it. mu must not be held.
func (p *Pager) beginLead() {
	p.syncMu.Lock()
	for p.leading {
		p.syncCond.Wait()
	}
	p.leading = true
	p.syncMu.Unlock()
}

func (p *Pager) endLead() {
	p.syncMu.Lock()
	p.leading = false
	p.syncCond.Broadcast()
	p.syncMu.Unlock()
}

// syncStaged makes every batch staged so far durable — one log fsync, then
// the archive segments those batches are owed — and wakes the Sync callers
// it covered. With force it fsyncs the log even when no batch is owed one
// (a start record is). Only the leader calls it, without mu.
func (p *Pager) syncStaged(force bool) error {
	p.syncMu.Lock()
	target, from, segs := p.staged, p.synced, p.unarchived
	p.syncMu.Unlock()
	if target == from && !force {
		return nil
	}
	if target != from {
		p.logSyncs.Add(1)
	}
	if err := p.syncLog(); err != nil {
		return err
	}
	for _, sg := range segs {
		sg := sg
		if err := p.retry(func() error { return WriteSegment(p.archiveDir, sg.lsn, sg.data, p.wrapSeg) }); err != nil {
			return err
		}
	}
	p.commits.Add(target - from)
	p.syncMu.Lock()
	p.synced = target
	if p.unarchived = p.unarchived[len(segs):]; len(p.unarchived) == 0 {
		p.unarchived = nil
	}
	p.syncCond.Broadcast()
	p.syncMu.Unlock()
	return nil
}

// syncLog fsyncs the log: the one place the journal does, so it is counted
// in one place. The raw log file's Sync is a datasync (logFile).
func (p *Pager) syncLog() error {
	p.syncs.Add(1)
	return p.retry(p.wal.Sync)
}

// logShare is the size the live log may reach before a checkpoint is due:
// its share of the page file (mu held).
func (p *Pager) logShare() int64 {
	return (int64(p.file.MaxPageID()) + 1) * int64(p.file.PageSize()) / checkpointFraction
}

// liveBytes is the size of the batches from the head to the tail (mu held).
func (p *Pager) liveBytes() int64 {
	if p.wrapEnd == 0 {
		return p.logEnd - p.head
	}
	return p.wrapEnd - p.head + p.logEnd - ringBase
}

// startDue runs after a leader's round. When the live log has outgrown its
// share of the page file and no checkpoint runs, it starts one on a
// goroutine of its own, unless a failed one has it backing off. Past twice
// the share — where only a batch into an empty ring, a bulk load's, or a log
// grown while checkpoints fail gets — the leader waits for the checkpoint
// as the inline fold made it, so that a load's next batch is not built
// beside this one's overlay.
func (p *Pager) startDue() {
	p.mu.RLock()
	live, share := p.liveBytes(), p.logShare()
	due := !p.closed && live > share && (p.ckpt == nil || live > 2*share)
	p.mu.RUnlock()
	if !due {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.liveBytes() <= p.logShare() {
		return
	}
	if p.ckpt == nil {
		if p.ckptWait > 0 {
			p.ckptWait-- // backing off after a failed checkpoint
			return
		}
		go p.runCheckpoint(p.beginCheckpoint())
	}
	if c := p.ckpt; p.liveBytes() > 2*p.logShare() {
		p.ckptWaits.Add(1)
		for p.ckpt == c {
			p.ckptDone.Wait()
		}
	}
}

// beginCheckpoint takes a checkpoint's snapshot and makes it the running one
// (mu held exclusively, none running): the overlay's images, every one
// logged at or before the last staged batch, and the tail that batch ended
// at. From here appendPage logs those pages in full and appendBatch does not
// recycle their buffers.
func (p *Pager) beginCheckpoint() *checkpoint {
	c := &checkpoint{lsn: p.staged, tail: p.logEnd, wrapped: p.wrapEnd != 0}
	c.pages = slices.Grow(p.snapshot[:0], len(p.overlay))
	p.snapshot = nil
	for id, e := range p.overlay {
		c.pages = append(c.pages, PageImage{ID: id, Data: e.img})
	}
	p.ckpt = c
	return c
}

// runCheckpoint runs checkpoint c to its end, on whichever goroutine began
// it or on one of its own: the page-file I/O holding neither mu nor the
// leader section, then the start record as the leader, then the finish
// under mu.
func (p *Pager) runCheckpoint(c *checkpoint) {
	c.err = p.writeCheckpoint(c)
	if c.written = c.err == nil; c.written {
		c.err = p.moveStart(c)
	}
	p.mu.Lock()
	p.endCheckpoint(c)
	p.mu.Unlock()
}

// writeCheckpoint is a checkpoint's page-file I/O: batches up to c.lsn are
// made durable first — a page image may reach the page file only after its
// log record is — then the snapshot is written in page order, written back
// to the device writeBackBurst pages at a time, and the page file fsynced.
// No lock is held: readers see these pages in the overlay until the finish
// drops them, and commits go on staging and syncing. A failed writeback is
// ignored: it makes nothing durable, and the fsync reports what failed.
func (p *Pager) writeCheckpoint(c *checkpoint) error {
	if _, err := p.syncTo(c.lsn); err != nil {
		return err
	}
	slices.SortFunc(c.pages, func(a, b PageImage) int { return cmp.Compare(a.ID, b.ID) })
	for i, pg := range c.pages {
		pg := pg
		if err := p.retry(func() error { return p.inner.WritePage(pg.ID, pg.Data) }); err != nil {
			return err
		}
		if i%writeBackBurst == writeBackBurst-1 || i == len(c.pages)-1 {
			_ = p.file.WriteBack(c.pages[i-i%writeBackBurst].ID, pg.ID)
		}
	}
	p.syncs.Add(1)
	return p.retry(p.inner.Sync)
}

// moveStart makes the page file's copy of batches up to c.lsn the log's
// start: a start record naming c.tail and the LSN after c.lsn goes into the
// slot the current one is not in and is fsynced by the leader, which acks
// whatever was staged meanwhile in the same fsync. A start record that is
// torn or never made durable leaves the other slot's, whose batches the
// ring has not reused.
func (p *Pager) moveStart(c *checkpoint) error {
	p.beginLead()
	defer p.endLead()
	p.mu.Lock()
	err := p.writeStart(c.tail, c.lsn+1)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return p.syncStaged(true)
}

// endCheckpoint finishes checkpoint c (mu held). Buffers of snapshot images
// a later batch replaced go back to WritePage. Once the page file's fsync
// covers the snapshot, the images no batch replaced leave the overlay, even
// when the start record then failed: that record may be durable all the
// same, or become so with the next log fsync, and a replay from it must find
// a full image of every page logged after it — which a page with no overlay
// entry gets. On success the frees staged at or before c.lsn are released
// and the ring's head moves to c.tail; a ring left with nothing live is
// rewound. On failure the count and the backoff rise, and the head and the
// frees stay where they are: the older start record may be the durable one.
func (p *Pager) endCheckpoint(c *checkpoint) {
	for _, pg := range c.pages {
		if e := p.overlay[pg.ID]; !c.holds(e) {
			p.recycle(pg.Data)
		} else if c.written {
			delete(p.overlay, pg.ID)
			p.recycle(pg.Data)
		}
	}
	clear(c.pages)
	p.snapshot, c.pages = c.pages[:0], nil
	p.ckpt = nil
	p.ckptDone.Broadcast()
	if c.err != nil {
		p.ckptFailures.Add(1)
		p.ckptBackoff = min(max(1, 2*p.ckptBackoff), maxCheckpointBackoff)
		p.ckptWait, p.ckptErr = p.ckptBackoff, c.err
		return
	}
	p.ckptBackoff, p.ckptWait, p.ckptErr = 0, 0, nil
	p.slot ^= 1
	p.releaseFreed(c.lsn)
	switch {
	case c.wrapped: // c.tail is in the lower part: the upper part is folded
		p.head, p.wrapEnd = c.tail, 0
	case p.wrapEnd == c.tail: // the tail wrapped right after the snapshot
		p.head, p.wrapEnd = ringBase, 0
	default:
		p.head = c.tail
	}
	if p.liveBytes() == 0 {
		p.rewind()
	}
	p.checkpoints.Add(1)
}

// rewind moves an empty ring's head and tail back to ringBase (mu held).
// The durable start record may name an offset past the new tail; replay
// finds no batch of the right LSN there and goes on at ringBase. A file a
// bulk load grew past twice the log's share is cut back to the start
// records, so an open store does not keep a load's worth of log on disk; a
// failed truncate leaves the file as it was.
func (p *Pager) rewind() {
	p.head, p.logEnd, p.wrapEnd = ringBase, ringBase, 0
	if p.fileEnd > 2*p.logShare() && p.retry(func() error { return p.wal.Truncate(ringBase) }) == nil {
		p.fileEnd = ringBase
	}
}

// releaseFreed hands the pages whose free was staged at or before lsn to
// the page file's allocator, in page order so reuse is deterministic (mu
// held). Errors are dropped: the free list is in-memory state, and a page
// that fails to join it is merely never reused.
func (p *Pager) releaseFreed(lsn uint64) {
	var ids []pagestore.PageID
	for id, at := range p.freed {
		if at <= lsn {
			ids = append(ids, id)
			delete(p.freed, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		_ = p.inner.Free(id)
	}
}

// checkpointLocked waits for a running checkpoint, then folds everything
// staged so far into the page file (mu held; released while a checkpoint
// runs). With nothing live it only releases the frees staged so far.
func (p *Pager) checkpointLocked() error {
	for p.ckpt != nil {
		p.ckptDone.Wait()
	}
	if p.closed {
		return ErrClosed
	}
	if p.liveBytes() == 0 {
		p.releaseFreed(p.staged) // every staged batch is in the page file and durable
		return nil
	}
	c := p.beginCheckpoint()
	p.mu.Unlock()
	p.runCheckpoint(c)
	p.mu.Lock()
	return c.err
}

// Checkpoint makes every staged batch durable and folds the log into the
// page file now, whatever its size, after waiting for a checkpoint already
// running. Repair and backup call it so that what they read is one file,
// not a file plus an overlay.
func (p *Pager) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.checkpointLocked()
}

// Commit makes all pending page writes durable atomically: Stage, then
// Sync. Transient I/O errors are retried with backoff; a failed log write
// leaves the pending set intact (retryable by the caller).
func (p *Pager) Commit() error {
	lsn, err := p.Stage()
	if err != nil {
		return err
	}
	return p.Sync(lsn)
}

// Pending returns the number of unstaged page writes (tests, stats).
func (p *Pager) Pending() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pending)
}

// LSN returns the last acknowledged batch's log sequence number: fsynced in
// the log and, when archiving, archived. It counts from the archive
// high-water mark at open (plus any batch replayed by recovery), so with
// archiving enabled it is stable across reopens; without an archive
// directory it restarts at zero each open.
func (p *Pager) LSN() uint64 {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	return p.synced
}

// JournalStats reports the commit-path counters: batches made durable, every
// fsync the journal issued (log, page file, start record), checkpoints
// completed, checkpoints that failed (each is retried later; a count that
// keeps rising beside a growing log means the page file cannot be written),
// the live bytes of the ring, every byte ever appended to the log, the log
// fsyncs that made batches durable (the commit points; commits ÷ logSyncs is
// the mean group size), and the commits that waited behind a checkpoint
// because the ring was full. Single-threaded, syncs ÷ commits is about
// 1 + 2/k for k commits per checkpoint, and k is about the log's share of
// the page file ÷ logged bytes per commit — tens once a commit's pages log
// as deltas; under group commit the log's share of it drops below one.
func (p *Pager) JournalStats() (commits, syncs, checkpoints, failedCheckpoints uint64, logBytes int64, logged, logSyncs, ckptWaits uint64) {
	p.mu.RLock()
	logBytes = p.liveBytes()
	p.mu.RUnlock()
	return p.commits.Load(), p.syncs.Load(), p.checkpoints.Load(), p.ckptFailures.Load(), logBytes, p.logged.Load(), p.logSyncs.Load(), p.ckptWaits.Load()
}

// DiscardPending drops every page write and every free not yet staged.
// Repair uses it on a degraded store — the dirty in-memory state is suspect
// — and a failed rebuild uses it to abandon its half-written generation.
// Staged batches are untouched: they are in the log, durable or about to
// be, and only roll forward.
func (p *Pager) DiscardPending() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.pending)
	p.order = p.order[:0]
	for id, at := range p.freed {
		if at == unstaged {
			delete(p.freed, id)
		}
	}
}

// Archiving reports whether committed batches are archived as segments (an
// ArchiveDir was configured). When true, LSN counts from the archive
// high-water mark and is stable across reopens — the property backup
// sidecars rely on to use their LSN as a roll-forward point.
func (p *Pager) Archiving() bool { return p.archiveDir != "" }

// ArchiveDir returns the segment archive directory ("" when not archiving).
func (p *Pager) ArchiveDir() string { return p.archiveDir }

// ArchiveStats reports the archive directory's segment count and total
// bytes on disk — retention pressure, surfaced by the store's Stats so
// operators see growth before the disk fills. Zeros when archiving is off
// or the directory cannot be read (stats must never fail an operation).
func (p *Pager) ArchiveStats() (segments int, bytes int64) {
	if p.archiveDir == "" {
		return 0, 0
	}
	segments, bytes, err := ArchiveUsage(p.archiveDir)
	if err != nil {
		return 0, 0
	}
	return segments, bytes
}

// Close commits outstanding writes, waits for a running checkpoint, runs one
// over everything staged, truncates the log to zero and closes both files,
// so a cleanly closed store is one complete page file beside an empty log.
// If the commit or the checkpoint fails, the pager still closes: pending
// pages are discarded and the log is left as-is on disk, so the next Open
// replays whatever became durable — never a half-applied state. The error
// is returned.
func (p *Pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	_, cerr := p.stageLocked()
	if cerr == nil {
		cerr = p.checkpointLocked()
	}
	p.shut()
	defer p.endLead()
	defer p.mu.Unlock()
	if cerr == nil && p.liveBytes() == 0 {
		// Nothing in the log is live: a truncate that does not survive a
		// crash leaves start records and older laps, which replay to nothing.
		cerr = p.retry(func() error { return p.wal.Truncate(0) })
	}
	clear(p.pending)
	p.order = nil
	werr := p.wal.Close()
	ierr := p.inner.Close()
	if cerr != nil {
		return cerr
	}
	if werr != nil {
		return werr
	}
	return ierr
}

// shut marks the pager closed once no checkpoint runs, then waits for the
// leader section (mu held on entry; on return mu is held again and so is the
// leader section): no checkpoint, Stage or round starts after it, and none
// is left running.
func (p *Pager) shut() {
	for p.ckpt != nil {
		p.ckptDone.Wait()
	}
	p.closed = true
	p.mu.Unlock()
	p.beginLead()
	p.mu.Lock()
}

// CloseWithoutCommit abandons pending writes and skips the checkpoint
// (crash simulation in tests): the log keeps every staged batch. A
// checkpoint already running is waited for.
func (p *Pager) CloseWithoutCommit() error {
	p.mu.Lock()
	p.shut()
	defer p.endLead()
	defer p.mu.Unlock()
	p.wal.Close()
	return p.inner.Close()
}

// logFile is the raw sidecar log. Its Sync is a datasync: the log is
// overwritten in place, so the file's size rarely changes and a log fsync
// need not commit the inode's timestamps. Options.WrapLog wraps it, so
// wrappers still see one Sync per log sync.
type logFile struct{ *os.File }

func (f logFile) Sync() error { return datasync(f.File) }

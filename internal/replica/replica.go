// Package replica turns the store's WAL-segment archive into physical read
// replication. A Follower opens a roll-forward-capable backup base and
// continuously tails newly archived commit segments through a pluggable
// Transport, applying each one crash-safely to its own copy of the page
// file and serving reads at a bounded, observable staleness.
//
// The design cashes in the paper's central bet one more time: because node
// ids are derived, never stored, the follower's in-memory indexes (range
// index, lazy partial index) rebuild from a single sequential scan of the
// range records — so catching up is almost pure page I/O, with none of the
// index-reconstruction cost that dominates replica catch-up in eager
// designs. After every applied batch the follower simply reopens its
// serving store over the updated file and lets the lazy machinery relearn
// what reads actually touch.
//
// The apply protocol mirrors the WAL's own commit discipline:
//
//  1. the fetched segment is validated (record CRCs, LSN match, and the
//     checksum of every page once its delta is applied to the store
//     file's copy) — a follower never applies bytes it cannot prove whole;
//  2. the resolved pages are durably written into the follower's local
//     archive as a segment of full images (the follower's own PITR
//     history, and the redo source for crash recovery);
//  3. the page images are applied to the store file and fsynced;
//  4. the durable position sidecar advances to the segment's LSN. A pass
//     that finds the sidecar behind the applied LSN (its write failed)
//     rewrites it before it applies anything else.
//
// A follower killed between any two of those steps restarts to a
// consistent LSN: Open replays any locally archived segment above the
// sidecar position, and removes a torn local copy as debris. The local
// copy holds full images, so the replay is right whatever a crash left in
// the store file. A gap or validated corruption in the shipped stream
// degrades the follower to ErrReplicaStalled — it keeps serving the reads
// it can prove (stale, never wrong) and refuses to guess. Promote fences
// the follower generation, fsyncs the applied state, and reopens the store
// read-write with its LSN history intact.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/retryx"
	"repro/internal/wal"
)

// Typed replica conditions, for errors.Is.
var (
	// ErrReplicaStalled marks a follower that found a hole it must not
	// paper over: a segment missing below the source's high-water mark
	// (pruned from under the follower) or a segment that stays corrupt
	// after retries. The follower keeps serving reads at its applied LSN;
	// catch-up refuses to continue until Resume (after the operator fixes
	// the archive) or a re-bootstrap.
	ErrReplicaStalled = errors.New("replica: segment stream broken; follower stalled at its applied LSN")
	// ErrTooStale sheds a gated read: the follower cannot prove it is
	// within the caller's MinLSN / MaxStaleness bound.
	ErrTooStale = errors.New("replica: follower is behind the requested read gate")
	// ErrPromoted is returned when a follower role is requested of a store
	// that has been promoted — the fence that keeps a stale tailer from
	// applying old-generation segments over the new timeline.
	ErrPromoted = errors.New("replica: store was promoted; it no longer follows")
	// ErrNotBootstrapped is returned by Open when neither a replica state
	// sidecar nor a bootstrap base exists.
	ErrNotBootstrapped = errors.New("replica: store has no replica state; bootstrap from a roll-forward-capable backup")
	// ErrClosed is returned by operations on a closed follower.
	ErrClosed = errors.New("replica: follower is closed")
	// errNoTransport gates CatchUp on promote-only followers.
	errNoTransport = errors.New("replica: no transport configured")
)

// Options tunes a follower.
type Options struct {
	// Store configures the serving store (index mode, pool size, admission,
	// memory budget...). ReadOnly is forced on while following; Pager is
	// ignored. FullIndex mode cannot serve read-only and is rejected.
	Store core.Config
	// Base is the roll-forward-capable backup to bootstrap from when the
	// store has no replica state sidecar yet. Ignored on resume. A
	// NoRollForward backup is refused with recover.ErrNoRollForwardBase.
	Base string
	// ArchiveDir is the follower's local segment archive — its own copy of
	// every applied segment, which makes crash recovery self-contained and
	// a promoted follower the owner of its full PITR history. Defaults to
	// <store>.archive.
	ArchiveDir string
	// PollInterval paces the Start/Run tail loop. Defaults to 250ms.
	PollInterval time.Duration
	// FetchRetries bounds how often a segment that fails validation (torn
	// or short read under concurrent shipping) is re-fetched before the
	// follower decides. 0 means the default (5); negative disables.
	FetchRetries int
	// FetchBackoff is the initial re-fetch backoff, doubled per attempt.
	// 0 means the default (2ms).
	FetchBackoff time.Duration
	// Wrap, when set, wraps every file the apply path writes — the store
	// file, the state sidecar, local archive segments and the bootstrap
	// restore — so fault injection can crash the follower at each I/O
	// boundary of segment apply.
	Wrap func(wal.File) wal.File
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
	switch {
	case o.FetchRetries == 0:
		o.FetchRetries = 5
	case o.FetchRetries < 0:
		o.FetchRetries = 0
	}
	if o.FetchBackoff <= 0 {
		o.FetchBackoff = 2 * time.Millisecond
	}
	return o
}

// Stats is a snapshot of the follower's replication position — what an
// operator watches to see lag and decide on failover.
type Stats struct {
	// AppliedLSN is the last commit durably applied; reads serve exactly
	// this state. BaseLSN is where the bootstrap backup cut.
	AppliedLSN uint64 `json:"applied_lsn"`
	BaseLSN    uint64 `json:"base_lsn"`
	// SourceLSN is the source's high-water mark as of the last poll;
	// LagSegments/LagBytes count the shipped-but-unapplied tail.
	SourceLSN   uint64 `json:"source_lsn"`
	LagSegments int    `json:"lag_segments"`
	LagBytes    int64  `json:"lag_bytes"`
	// SegmentsApplied/BytesApplied total this follower session's work.
	SegmentsApplied uint64 `json:"segments_applied"`
	BytesApplied    int64  `json:"bytes_applied"`
	// Staleness is the time since the follower last proved itself level
	// with the source (a poll that ended with AppliedLSN == SourceLSN).
	// It is the bound MaxStaleness reads are gated on, so it only shrinks
	// while a tail loop is polling.
	Staleness time.Duration `json:"staleness"`
	// Stalled/StallCause report a degraded stream (see ErrReplicaStalled).
	Stalled    bool   `json:"stalled"`
	StallCause string `json:"stall_cause,omitempty"`
	// Promoted reports that this follower has left the follower role.
	Promoted bool `json:"promoted,omitempty"`
	// LastError is the most recent catch-up failure ("" after a clean
	// pass) — transient transport trouble shows up here without stalling.
	LastError string `json:"last_error,omitempty"`
}

// ReadOptions gates a follower read on replication position.
type ReadOptions struct {
	// MinLSN requires the follower to have applied at least this commit
	// (read-your-writes across the fleet: a client that wrote at LSN n on
	// the primary passes n here). Zero accepts any applied state.
	MinLSN uint64
	// MaxStaleness bounds how long ago the follower last proved itself
	// level with the source. Zero disables the time gate. A bound only
	// stays satisfiable while a tail loop polls at least that often.
	MaxStaleness time.Duration
}

// Follower is a read replica of one store, fed by WAL-segment shipping.
// All methods are safe for concurrent use; reads run under a shared lock
// and block only for the short store-swap at the end of an apply batch.
type Follower struct {
	path       string
	archiveDir string
	opt        Options
	tr         Transport

	// mu orders reads against apply: CatchUp holds it exclusively while
	// writing pages and swapping the serving store, so a read never sees a
	// half-applied segment.
	mu         sync.RWMutex
	applyF     wal.File    // store-file handle; holds the exclusive flock
	st         *core.Store // read-only serving store over the current state
	state      replicaState
	stateStale bool // state is ahead of the durable sidecar: its last write failed
	promoted   bool
	closed     bool

	sourceLSN    uint64
	lagSegments  int
	lagBytes     int64
	segsApplied  uint64
	bytesApplied int64
	freshAsOf    time.Time
	stallCause   error
	lastErr      error

	loopCancel context.CancelFunc
	loopDone   chan struct{}
}

// Open attaches a follower to the store file at path. If the store has no
// replica state sidecar yet it is bootstrapped from opt.Base (a
// roll-forward-capable backup); otherwise the sidecar position is resumed.
// Any locally archived segments above the durable position — the debris of
// a crash between archive and sidecar advance — are replayed (or removed
// if torn) before the serving store opens, so a follower killed mid-apply
// restarts to a consistent LSN without touching the transport. tr may be
// nil for a promote-only open.
func Open(path string, tr Transport, opt Options) (*Follower, error) {
	opt = opt.withDefaults()
	archiveDir := opt.ArchiveDir
	if archiveDir == "" {
		archiveDir = path + ".archive"
	}

	st, err := readState(path)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		if opt.Base == "" {
			return nil, fmt.Errorf("%w (store %s: no %s sidecar and no base backup given)", ErrNotBootstrapped, path, stateSuffix)
		}
		// Bootstrap order matters for crash safety: the sidecar is written
		// BEFORE the page image is restored. A crash with no sidecar means
		// nothing durable happened; a sidecar at AppliedLSN == BaseLSN with
		// no store file means "redo the restore" (below). The restore itself
		// stages and renames atomically, so no order leaves a half-written
		// page image next to a sidecar that trusts it.
		meta, merr := recov.ReadBackupMeta(opt.Base)
		if merr != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", merr)
		}
		if meta.NoRollForward {
			return nil, fmt.Errorf("%w (backup %s, recorded LSN %d; take the backup with the archive configured)",
				recov.ErrNoRollForwardBase, opt.Base, meta.LSN)
		}
		st = replicaState{
			PageSize:   meta.PageSize,
			MetaPage:   uint32(meta.MetaPage),
			BaseLSN:    meta.LSN,
			AppliedLSN: meta.LSN,
		}
		if werr := writeState(path, st, opt.Wrap); werr != nil {
			return nil, werr
		}
	default:
		return nil, err
	}
	if st.Promoted {
		return nil, fmt.Errorf("%w (store %s, fenced at LSN %d)", ErrPromoted, path, st.FencedLSN)
	}
	if _, serr := os.Stat(path); os.IsNotExist(serr) {
		// The sidecar exists but the page image does not: a fresh bootstrap,
		// or the retry of one that crashed between the sidecar write and the
		// restore's atomic rename. Either way the sidecar must still be at
		// its base position — an image that had segments applied to it
		// cannot be conjured back from the base alone.
		if st.AppliedLSN != st.BaseLSN {
			return nil, fmt.Errorf("replica: store %s page image is missing but its sidecar says LSN %d was applied; restore the follower from a backup", path, st.AppliedLSN)
		}
		if opt.Base == "" {
			return nil, fmt.Errorf("replica: store %s has a replica sidecar but no page image; re-run with the bootstrap base", path)
		}
		meta, berr := recov.Bootstrap(opt.Base, path, opt.Wrap)
		if berr != nil {
			return nil, berr
		}
		if meta.LSN != st.BaseLSN || meta.PageSize != st.PageSize {
			return nil, fmt.Errorf("replica: base %s (LSN %d, page size %d) does not match the sidecar (base LSN %d, page size %d)",
				opt.Base, meta.LSN, meta.PageSize, st.BaseLSN, st.PageSize)
		}
	} else if serr != nil {
		return nil, serr
	}

	raw, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := pagestore.FlockFile(raw, true); err != nil {
		raw.Close()
		return nil, err
	}
	var applyF wal.File = raw
	if opt.Wrap != nil {
		applyF = opt.Wrap(raw)
	}

	f := &Follower{
		path:       path,
		archiveDir: archiveDir,
		opt:        opt,
		tr:         tr,
		applyF:     applyF,
		state:      st,
		freshAsOf:  time.Now(),
	}
	if err := f.recoverLocalLocked(); err != nil {
		applyF.Close()
		return nil, err
	}
	if err := f.reopenStoreLocked(); err != nil {
		applyF.Close()
		return nil, err
	}
	return f, nil
}

// recoverLocalLocked replays locally archived segments above the durable
// position — the crash-recovery half of the apply protocol. A local
// segment exists above AppliedLSN exactly when the follower died between
// archiving it and advancing the sidecar. It holds full images, so the
// replay does not care what the store file holds: the pages before the
// segment, after it, several segments ahead, or a write torn into garbage.
// A copy that does not parse was torn mid-archive: never confirmed, it is
// removed as debris, to be re-fetched from the transport later. A copy that
// parses but names another commit or holds a page failing its checksum is
// not torn, and the follower refuses to open rather than guess.
func (f *Follower) recoverLocalLocked() error {
	for {
		next := f.state.AppliedLSN + 1
		name := wal.SegmentFileName(next)
		segPath := filepath.Join(f.archiveDir, name)
		data, err := os.ReadFile(segPath)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		pages, segLSN, perr := wal.ParseSegment(name, data, f.state.PageSize, nil)
		if perr != nil {
			return os.Remove(segPath)
		}
		if err := checkSegment(name, pages, segLSN, next); err != nil {
			return fmt.Errorf("replica: local %w; restore the follower from a backup", err)
		}
		if err := f.applyPagesLocked(pages); err != nil {
			return err
		}
		st := f.state
		st.AppliedLSN = next
		if err := writeState(f.path, st, f.opt.Wrap); err != nil {
			return err
		}
		f.state = st
	}
}

// validate proves segment lsn's bytes whole and applicable: record CRCs,
// the commit LSN, and the checksum of every page once its delta, if any, is
// applied to the page as the store file holds it at the applied LSN.
// Committed pages are stamped by the buffer pool before they reach the WAL,
// so a mismatch means the segment was corrupted in flight or at rest, or
// the store file is not the page the primary diffed against — grounds to
// stall, never to apply. A failure to read the store file comes back as
// readErr instead: it says nothing about the bytes.
func (f *Follower) validate(name string, data []byte, lsn uint64) (pages []wal.PageImage, readErr, err error) {
	ps := f.state.PageSize
	pages, segLSN, err := wal.ParseSegment(name, data, ps, func(id pagestore.PageID, buf []byte) error {
		readErr = f.readAt(int64(id)*int64(ps), buf)
		return readErr
	})
	if readErr != nil {
		return nil, readErr, nil
	}
	if err != nil {
		return nil, nil, err
	}
	if err := checkSegment(name, pages, segLSN, lsn); err != nil {
		return nil, nil, fmt.Errorf("replica: %w", err)
	}
	return pages, nil, nil
}

// checkSegment proves parsed segment name is commit lsn with every page
// whole.
func checkSegment(name string, pages []wal.PageImage, segLSN, lsn uint64) error {
	if segLSN != lsn {
		return fmt.Errorf("segment %s carries LSN %d", name, segLSN)
	}
	for _, p := range pages {
		if err := pagestore.VerifyChecksum(p.ID, p.Data); err != nil {
			return fmt.Errorf("segment %s: %w", name, err)
		}
	}
	return nil
}

// readAt fills buf from the store file at off, zero-padding past EOF (a
// segment may extend the file; the "before" image of a not-yet-allocated
// page is zeros).
func (f *Follower) readAt(off int64, buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if _, err := f.applyF.Seek(off, io.SeekStart); err != nil {
		return err
	}
	_, err := io.ReadFull(f.applyF, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// applyPagesLocked writes a validated segment's page images into the store
// file and fsyncs. On any failure it writes the captured before-images
// back (best-effort) so the durable file stays at the sidecar's LSN — the
// serving store must never see a half-applied segment, even through a
// buffer-pool refetch.
func (f *Follower) applyPagesLocked(pages []wal.PageImage) error {
	ps := int64(f.state.PageSize)
	undo := make([]wal.PageImage, 0, len(pages))
	for _, p := range pages {
		before := make([]byte, ps)
		if err := f.readAt(int64(p.ID)*ps, before); err != nil {
			return err
		}
		undo = append(undo, wal.PageImage{ID: p.ID, Data: before})
	}
	rollback := func(err error) error {
		for _, u := range undo {
			_, _ = f.applyF.WriteAt(u.Data, int64(u.ID)*ps)
		}
		_ = f.applyF.Sync()
		return err
	}
	for _, p := range pages {
		if _, err := f.applyF.WriteAt(p.Data, int64(p.ID)*ps); err != nil {
			return rollback(err)
		}
	}
	if err := f.applyF.Sync(); err != nil {
		return rollback(err)
	}
	return nil
}

// reopenStoreLocked (re)builds the serving store over the current file
// state. This is the lazy design paying off: the rebuild is one sequential
// scan of the range records — no per-node index reconstruction — so a
// follower refreshes its read view in time proportional to the range
// count, not the document size.
func (f *Follower) reopenStoreLocked() error {
	if f.st != nil {
		f.st.Close()
		f.st = nil
	}
	pager, err := pagestore.OpenFilePagerOpts(f.path, f.state.PageSize, pagestore.FileOpts{ReadOnly: true, NoLock: true})
	if err != nil {
		return err
	}
	cfg := f.opt.Store
	cfg.Pager = nil
	cfg.ReadOnly = true
	cfg.PageSize = f.state.PageSize
	st, err := core.Reopen(cfg, pager, pagestore.PageID(f.state.MetaPage))
	if err != nil {
		pager.Close()
		return err
	}
	f.st = st
	return nil
}

// stallLocked latches the stall cause and returns the typed error.
func (f *Follower) stallLocked(cause error) error {
	if f.stallCause == nil {
		f.stallCause = cause
	}
	return fmt.Errorf("%w: %v", ErrReplicaStalled, cause)
}

// ArchiveDir returns the follower's local segment archive — the directory
// a cascading replica can tail, exactly as it would a primary's.
func (f *Follower) ArchiveDir() string { return f.archiveDir }

// Resume clears a stall so the next catch-up retries the stream — for use
// after the operator repaired or re-shipped the offending segment. If the
// hole is still there, the follower stalls again.
func (f *Follower) Resume() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stallCause = nil
}

// Stall stops catch-up at the applied LSN as a broken stream does: reads
// keep serving, stale but never wrong, and nothing more is applied until
// Resume or a reopen. The failover integration calls it when the fleet
// elects a new primary, which deposes the source this follower tails.
func (f *Follower) Stall(cause error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stallLocked(cause)
}

// CatchUp polls the transport once and applies every contiguous,
// validated segment beyond the applied LSN, then refreshes the serving
// store. It returns nil when the follower ends the pass level with the
// source; transient transport or disk errors return non-nil and are safe
// to retry on the next pass. A gap below the source's high-water mark or
// a persistently corrupt segment stalls the follower (ErrReplicaStalled).
func (f *Follower) CatchUp(ctx context.Context) (err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	defer func() { f.lastErr = err }()
	if f.closed {
		return ErrClosed
	}
	if f.promoted || f.state.Promoted {
		return ErrPromoted
	}
	if f.tr == nil {
		return errNoTransport
	}
	if f.stallCause != nil {
		return fmt.Errorf("%w: %v", ErrReplicaStalled, f.stallCause)
	}
	// Nothing is applied while the durable sidecar lags the store file: a
	// restart replays from the sidecar, and should cover one segment at most.
	if f.stateStale {
		if err := writeState(f.path, f.state, f.opt.Wrap); err != nil {
			return err
		}
		f.stateStale = false
	}

	segs, perr := f.tr.Segments(ctx, f.state.AppliedLSN)
	if perr != nil {
		return perr
	}
	now := time.Now()
	f.sourceLSN = f.state.AppliedLSN
	f.lagSegments = len(segs)
	f.lagBytes = 0
	for _, s := range segs {
		if s.LSN > f.sourceLSN {
			f.sourceLSN = s.LSN
		}
		f.lagBytes += s.Bytes
	}
	if len(segs) == 0 {
		f.freshAsOf = now
		return nil
	}
	run := wal.Contiguous(segs, f.state.AppliedLSN)
	if len(run) == 0 {
		// The source offers segments beyond us but not the one we need
		// next: it was pruned from under this follower. No amount of
		// retrying conjures it back; re-bootstrap from a newer backup.
		return f.stallLocked(fmt.Errorf("segment %d missing at source (source offers %d..%d; history pruned from under the follower — re-bootstrap from a newer backup)",
			f.state.AppliedLSN+1, segs[0].LSN, f.sourceLSN))
	}

	from := f.state.AppliedLSN
	defer func() {
		if f.state.AppliedLSN != from {
			if serr := f.reopenStoreLocked(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	for _, sg := range run {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		raw, pages, ferr, fatal := f.fetchValidated(ctx, sg.LSN)
		if ferr != nil {
			if !fatal {
				return ferr
			}
			return f.stallLocked(ferr)
		}
		if aerr := f.applySegmentLocked(sg.LSN, pages); aerr != nil {
			return aerr
		}
		f.segsApplied++
		f.bytesApplied += int64(len(raw))
		f.lagSegments--
		f.lagBytes -= sg.Bytes
	}
	if f.state.AppliedLSN == f.sourceLSN {
		f.freshAsOf = time.Now()
	}
	return nil
}

// fetchValidated fetches segment lsn and proves it whole: record CRCs,
// commit LSN match, per-page checksums. Failures are retried on the shared
// retryx loop (jittered backoff, cut by the caller's context) — a segment
// being shipped concurrently reads short or torn until its fsync lands.
// Only a *validation* failure of fetched bytes can become fatal: if the
// bytes still fail after retries and a *later* segment exists, they are
// final and corrupt — stall. A transport failure (the fetch itself errored,
// e.g. a disk or network hiccup outlasting the retry bound) is always
// transient, no matter how many retries it ate: the bytes were never seen,
// so nothing is proven about the history, and the next poll simply tries
// again. So is a failure to read the store file pages a delta applies to.
// Likewise the newest offered segment may still be in flight.
func (f *Follower) fetchValidated(ctx context.Context, lsn uint64) (raw []byte, pages []wal.PageImage, err error, fatal bool) {
	name := wal.SegmentFileName(lsn)
	validationErr := false
	p := retryx.Policy{MaxAttempts: f.opt.FetchRetries + 1, Initial: f.opt.FetchBackoff}
	// A vanished segment ends the loop early: listed a moment ago, gone
	// now — let the next poll decide between "pruned" (gap -> stall) and a
	// racing lister. Everything else earns the full attempt budget.
	retryable := func(err error) bool { return !missingSegment(err) }
	err = retryx.Do(ctx, p, retryable, func(ctx context.Context) error {
		validationErr = false
		data, err := f.tr.Fetch(ctx, lsn)
		if err != nil {
			return err
		}
		imgs, readErr, verr := f.validate(name, data, lsn)
		if readErr != nil {
			return readErr
		}
		validationErr = true
		if verr != nil {
			return verr
		}
		raw, pages = data, imgs
		return nil
	})
	if err == nil {
		return raw, pages, nil, false
	}
	if missingSegment(err) {
		return nil, nil, err, false
	}
	// Retries exhausted. Final bytes (a successor exists) that still fail
	// validation are corrupt history: stall. Everything else is transient.
	if validationErr && f.sourceLSN > lsn {
		return nil, nil, fmt.Errorf("segment %s failed validation after %d retries with later segments present: %w", name, f.opt.FetchRetries, err), true
	}
	return nil, nil, err, false
}

// applySegmentLocked runs the durable half of the apply protocol for one
// validated segment: local archive copy of the resolved pages first (the
// redo record), then page apply + fsync, then the sidecar advance. See the
// package comment for why this order makes every crash point recoverable.
func (f *Follower) applySegmentLocked(lsn uint64, pages []wal.PageImage) error {
	if err := f.archiveLocally(lsn, pages); err != nil {
		return err
	}
	if err := f.applyPagesLocked(pages); err != nil {
		return err
	}
	// The segment is archived and its pages are durable, so lsn is applied
	// whether or not the sidecar advance reaches disk — a restart from the
	// older position replays the local copy. Advancing in memory regardless
	// keeps the next pass from rewriting (truncating) that copy; that pass
	// rewrites the sidecar before it applies anything.
	f.state.AppliedLSN = lsn
	err := writeState(f.path, f.state, f.opt.Wrap)
	f.stateStale = err != nil
	return err
}

// archiveLocally makes the local copy of segment lsn durable. A whole copy
// already there was written by an earlier attempt whose page apply failed
// and may have left its pages half in the store file, its undo failing too
// (a full disk): that copy is their redo record, so it is synced as it is,
// never rewritten — a rewrite truncates first, and one that failed then
// would leave a half-applied store file with nothing to replay.
func (f *Follower) archiveLocally(lsn uint64, pages []wal.PageImage) error {
	name := wal.SegmentFileName(lsn)
	path := filepath.Join(f.archiveDir, name)
	if data, err := os.ReadFile(path); err == nil {
		if _, segLSN, perr := wal.ParseSegment(name, data, f.state.PageSize, nil); perr == nil && segLSN == lsn {
			raw, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return err
			}
			var sf wal.File = raw
			if f.opt.Wrap != nil {
				sf = f.opt.Wrap(raw)
			}
			if err := sf.Sync(); err != nil {
				sf.Close()
				return err
			}
			return sf.Close()
		}
	}
	return wal.WriteSegment(f.archiveDir, lsn, wal.EncodeSegment(pages, lsn), f.opt.Wrap)
}

// Read runs fn against the follower's serving store, gated on replication
// position: the read is shed with ErrTooStale when the follower cannot
// prove it satisfies opts (wrapping ErrReplicaStalled too when a stall is
// why). Ungated reads (zero opts) always serve — stale, never wrong. fn
// runs under the follower's shared lock; the store's own admission control
// and deadlines apply to every operation inside as usual.
func (f *Follower) Read(opts ReadOptions, fn func(*core.Store) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if f.st == nil {
		return fmt.Errorf("replica: serving store unavailable after a failed apply; reopen the follower")
	}
	if opts.MinLSN > f.state.AppliedLSN {
		return f.gateErrLocked(fmt.Sprintf("applied LSN %d, read requires %d", f.state.AppliedLSN, opts.MinLSN))
	}
	if opts.MaxStaleness > 0 {
		if stale := time.Since(f.freshAsOf); stale > opts.MaxStaleness {
			return f.gateErrLocked(fmt.Sprintf("last level with source %v ago, bound %v", stale.Round(time.Millisecond), opts.MaxStaleness))
		}
	}
	return fn(f.st)
}

// gateError is the typed shed of a position-gated read. It carries
// ErrTooStale always, plus ErrReplicaStalled when a stall is why the
// follower is behind, as a flat Unwrap() []error cause list. (An earlier
// version folded the stall in with a nested multi-%w wrap; errors.Is
// handled that in-process, but the flat list is what lets the wire
// mapping enumerate the sentinel set deterministically and a client
// reconstruct an error for which errors.Is answers identically.)
type gateError struct {
	msg    string
	causes []error
}

func (e *gateError) Error() string   { return e.msg }
func (e *gateError) Unwrap() []error { return e.causes }

// gateErrLocked builds the shed error for a read gate miss (f.mu held).
func (f *Follower) gateErrLocked(detail string) error {
	e := &gateError{
		msg:    fmt.Sprintf("%v: %s", ErrTooStale, detail),
		causes: []error{ErrTooStale},
	}
	if f.stallCause != nil {
		e.msg = fmt.Sprintf("%s (%v: %v)", e.msg, ErrReplicaStalled, f.stallCause)
		e.causes = append(e.causes, ErrReplicaStalled)
	}
	return e
}

// Stats snapshots the follower's replication position.
func (f *Follower) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := Stats{
		AppliedLSN:      f.state.AppliedLSN,
		BaseLSN:         f.state.BaseLSN,
		SourceLSN:       f.sourceLSN,
		LagSegments:     f.lagSegments,
		LagBytes:        f.lagBytes,
		SegmentsApplied: f.segsApplied,
		BytesApplied:    f.bytesApplied,
		Staleness:       time.Since(f.freshAsOf),
		Stalled:         f.stallCause != nil,
		Promoted:        f.promoted || f.state.Promoted,
	}
	if f.stallCause != nil {
		st.StallCause = f.stallCause.Error()
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// Start launches the tail loop: CatchUp every PollInterval until Close (or
// Promote) stops it. Errors are recorded in Stats.LastError; a stalled
// follower keeps looping so Resume takes effect without a restart.
func (f *Follower) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.loopCancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	f.loopCancel, f.loopDone = cancel, done
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
}

// Run tails the source until ctx is done, applying newly shipped segments
// every PollInterval. It always returns ctx's error; per-pass failures are
// visible in Stats.
func (f *Follower) Run(ctx context.Context) error {
	t := time.NewTicker(f.opt.PollInterval)
	defer t.Stop()
	for {
		_ = f.CatchUp(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// stopLoop stops the Start loop and waits for it to exit.
func (f *Follower) stopLoop() {
	f.mu.Lock()
	cancel, done := f.loopCancel, f.loopDone
	f.loopCancel, f.loopDone = nil, nil
	f.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Promote ends the follower role and returns the store reopened
// read-write, continuing the replicated history. The promotion fences the
// old generation first — the sidecar is durably marked Promoted at the
// fence LSN before anything reopens, so a stale tailer (this process or a
// restarted one) can never apply old-generation segments over the new
// timeline — then the serving handles close, local debris above the fence
// is dropped, and the store reopens write-ahead logged into the follower's
// own archive: its next commit is FencedLSN+1, and the bootstrap base plus
// that archive replay the full history across the failover (PITR intact).
// The follower is closed afterwards whether or not the reopen succeeds; on
// error the store file is valid at the fence LSN and can be opened
// manually. Automatic failover calls the same method; the election's epoch
// lives in the coordinator's term file.
func (f *Follower) Promote() (*core.Store, error) {
	f.stopLoop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if f.promoted || f.state.Promoted {
		return nil, ErrPromoted
	}
	// Fence: make the applied state durable and the role change permanent
	// before the store can accept a write.
	if err := f.applyF.Sync(); err != nil {
		return nil, err
	}
	st := f.state
	st.Promoted = true
	st.FencedLSN = st.AppliedLSN
	if err := writeState(f.path, st, f.opt.Wrap); err != nil {
		return nil, err
	}
	f.state = st
	f.promoted = true
	f.closed = true
	if f.st != nil {
		f.st.Close()
		f.st = nil
	}
	f.applyF.Close() // releases the exclusive flock for the reopen
	if f.tr != nil {
		f.tr.Close()
	}
	// Unconfirmed local copies above the fence are pre-promotion debris; a
	// restore must never replay them over the new generation's commits.
	if err := wal.DropSegmentsAbove(f.archiveDir, st.AppliedLSN); err != nil {
		return nil, err
	}
	wp, err := wal.OpenWithOptions(f.path, st.PageSize, wal.Options{
		ArchiveDir: f.archiveDir,
		MinLSN:     st.AppliedLSN,
	})
	if err != nil {
		return nil, err
	}
	cfg := f.opt.Store
	cfg.Pager = nil
	cfg.ReadOnly = false
	cfg.PageSize = st.PageSize
	rw, err := core.Reopen(cfg, wp, pagestore.PageID(st.MetaPage))
	if err != nil {
		wp.Close()
		return nil, err
	}
	return rw, nil
}

// Close stops the tail loop and releases the serving store, the store-file
// lock and the transport. The durable position stays on disk; a later Open
// resumes from it.
func (f *Follower) Close() error {
	f.stopLoop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var first error
	if f.st != nil {
		first = f.st.Close()
		f.st = nil
	}
	if err := f.applyF.Close(); err != nil && first == nil {
		first = err
	}
	if f.tr != nil {
		if err := f.tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

package axml

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/pagestore"
	recov "repro/internal/recover"
	"repro/internal/wal"
)

// Recovery re-exports: reports produced by repair, verification, backup
// and restore.
type (
	// RepairReport is a salvage report plus whether a rebuild was applied.
	RepairReport = core.RepairReport
	// BackupMeta is the sidecar written next to every backup.
	BackupMeta = recov.BackupMeta
	// RestoreInfo reports what a restore did.
	RestoreInfo = recov.RestoreInfo
	// PageFault describes one quarantined page in a report.
	PageFault = recov.PageFault
	// Interval is an inclusive node-id interval (lost-data reporting).
	Interval = recov.Interval
)

func defaultedPageSize(cfg Config) int {
	if cfg.PageSize > 0 {
		return cfg.PageSize
	}
	return pagestore.DefaultPageSize
}

// storeMetaPage is where OpenFile places the record store's meta page on a
// fresh file (page 0 is reserved, page 1 is the first allocation).
const storeMetaPage = pagestore.PageID(1)

// replayWAL folds a leftover non-empty WAL sidecar into the page file
// before a plain (non-journaled) open. A journaled session that did not
// close cleanly — a killed server, a crashed WAL-backed CLI run or repair —
// leaves every commit since its last checkpoint in the sidecar; opening the
// file without replaying them would miss those commits, then write around
// them and corrupt the store the next time the log is replayed.
func replayWAL(path string, pageSize int) error {
	st, err := os.Stat(path + ".wal")
	if err != nil || st.Size() == 0 {
		return nil // no sidecar, or nothing in it
	}
	wp, err := wal.Open(path, pageSize)
	if err != nil {
		return fmt.Errorf("replay leftover WAL: %w", err)
	}
	return wp.Close()
}

// OpenFileWAL is OpenFile with write-ahead logging: every Flush commits
// its pages as one atomic batch with a single log fsync (shared between
// concurrent flushes), so a crash never leaves a half-applied flush. The
// page file is brought up to date lazily, at checkpoints and at Close;
// until then the <path>.wal sidecar is part of the store. A non-empty
// archiveDir additionally archives every committed batch as a numbered
// segment — the raw material of point-in-time restore.
func OpenFileWAL(path string, cfg Config, archiveDir string) (*Store, error) {
	pager, err := wal.OpenWithOptions(path, defaultedPageSize(cfg), wal.Options{ArchiveDir: archiveDir})
	if err != nil {
		return nil, err
	}
	cfg.Pager = pager
	s, err := core.Open(cfg)
	if err != nil {
		pager.Close()
		return nil, err
	}
	return s, nil
}

// ReopenFileWAL is ReopenFile with write-ahead logging (see OpenFileWAL).
// Any committed batches left in the sidecar log by a previous crash are
// replayed first.
func ReopenFileWAL(path string, cfg Config, archiveDir string) (*Store, error) {
	pager, err := wal.OpenWithOptions(path, defaultedPageSize(cfg), wal.Options{ArchiveDir: archiveDir})
	if err != nil {
		return nil, err
	}
	s, err := core.Reopen(cfg, pager, storeMetaPage)
	if err != nil {
		pager.Close()
		return nil, err
	}
	return s, nil
}

// RepairFile salvages the store file at path: every page is scanned raw
// and classified, the surviving record chain is reassembled, and all
// indexes are rebuilt from the token sequence alone — the paper's "no
// stored ids, everything derivable" bet, cashed in as crash recovery.
//
// With apply false (the dry run) nothing is written and the report says
// what a repair would do. With apply true the salvaged ranges are written
// as a fresh generation and the store is switched over atomically: the
// repair itself runs under the write-ahead log, so crashing mid-repair
// leaves the store either fully repaired or untouched. Unreadable data is
// quarantined and reported (Result.Missing), never silently dropped.
//
// archiveDir must name the store's WAL segment archive whenever one is
// kept (empty otherwise): it numbers the rebuild commit after the
// archive's high-water mark and archives it as a segment, so later
// point-in-time restores replay across the repair. Repairing an archived
// store without its archive would restart the LSN counter at 1 and the
// rebuild batch — plus any crash leftovers in the sidecar log — would be
// archived over the genuine early segments, corrupting the whole history.
func RepairFile(path string, cfg Config, apply bool, archiveDir string) (*RepairReport, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	wp, err := wal.OpenWithOptions(path, defaultedPageSize(cfg), wal.Options{ArchiveDir: archiveDir})
	if err != nil {
		return nil, err
	}
	rep, rerr := core.RepairPager(wp, storeMetaPage, apply)
	cerr := wp.Close()
	if rerr != nil {
		return rep, rerr
	}
	return rep, cerr
}

// BackupStoreFile copies the store file at src into a consistent backup
// at dest (plus a BackupMeta sidecar at dest+".meta"). Exclusive mode
// replays any WAL tail into the copy. Shared mode runs under a shared
// lock, coexisting with read-only openers, and folds committed-but-
// unapplied WAL batches in as an overlay instead. Every page is checksum-
// verified on the way out; a corrupt store refuses to back up (repair it
// first). archiveDir names the store's segment archive: it keeps the
// history contiguous across an exclusive backup and, in both modes, pins
// the sidecar LSN to the archive's high-water mark. A backup taken
// without it is marked NoRollForward — restorable as-is, but refused as a
// base for segment replay, because its LSN may undercount the image.
func BackupStoreFile(src, dest string, cfg Config, shared bool, archiveDir string) (BackupMeta, error) {
	if _, err := os.Stat(src); err != nil {
		return BackupMeta{}, err
	}
	return recov.BackupFile(src, dest, recov.BackupOptions{
		PageSize:   defaultedPageSize(cfg),
		MetaPage:   storeMetaPage,
		Shared:     shared,
		ArchiveDir: archiveDir,
	})
}

// RestoreFile materializes the store state at targetLSN into dest: the
// base backup's pages plus every archived WAL segment up to the target,
// staged in a temporary file and atomically renamed into place. targetLSN
// zero means the newest archived segment (or the backup itself if
// archiveDir is empty). The destination must not exist.
func RestoreFile(base, dest string, archiveDir string, targetLSN uint64) (RestoreInfo, error) {
	return recov.Restore(base, dest, recov.RestoreOptions{
		ArchiveDir: archiveDir,
		TargetLSN:  targetLSN,
	})
}

// PruneReport says what an archive prune did (or, on a dry run, would do).
type PruneReport struct {
	// BackupLSN is the newest roll-forward-capable backup sidecar LSN found
	// — the proven restore base that makes older segments redundant.
	BackupLSN uint64 `json:"backup_lsn"`
	// KeepFrom is the effective cutoff: segments with LSN < KeepFrom are
	// prunable, everything at or above stays.
	KeepFrom uint64 `json:"keep_from"`
	// Segments/Bytes count the prunable (dry run) or pruned (applied)
	// segments.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Remaining counts the segments left in the archive after the prune.
	Remaining int `json:"remaining"`
	// Applied is false for a dry run.
	Applied bool `json:"applied"`
}

// PruneArchive removes archived WAL segments that are no longer needed for
// point-in-time restore, because a backup already contains them. backupsDir
// is scanned for backup sidecars (*.meta); the newest roll-forward-capable
// one (NoRollForward unset) anchors the cutoff: restore from that backup
// replays segments LSN+1.., so segments up to and including its LSN are
// redundant. Without such a sidecar PruneArchive refuses — pruning without
// a proven restore base silently destroys history.
//
// requestedLSN, when non-zero, lowers the cutoff: only segments with
// LSN < requestedLSN are pruned, and the cutoff never exceeds what the
// newest backup makes safe. With apply false (the dry run) nothing is
// removed and the report says what a prune would do.
func PruneArchive(archiveDir, backupsDir string, requestedLSN uint64, apply bool) (PruneReport, error) {
	var rep PruneReport
	sidecars, err := filepathGlobMeta(backupsDir)
	if err != nil {
		return rep, err
	}
	found := false
	for _, backupPath := range sidecars {
		m, err := recov.ReadBackupMeta(backupPath)
		if err != nil || m.NoRollForward {
			continue // unreadable or non-roll-forward sidecars never raise the cutoff
		}
		found = true
		if m.LSN > rep.BackupLSN {
			rep.BackupLSN = m.LSN
		}
	}
	if !found {
		return rep, fmt.Errorf("prune: no roll-forward-capable backup sidecar (*.meta) in %s; refusing to prune without a restore base", backupsDir)
	}
	// Segments LSN+1.. are still needed to roll the newest backup forward;
	// everything at or below its LSN is covered by the backup itself.
	rep.KeepFrom = rep.BackupLSN + 1
	if requestedLSN > 0 && requestedLSN < rep.KeepFrom {
		rep.KeepFrom = requestedLSN
	}
	segs, err := wal.Segments(archiveDir)
	if err != nil {
		return rep, err
	}
	for _, sg := range segs {
		if sg.LSN < rep.KeepFrom {
			rep.Segments++
			rep.Bytes += sg.Bytes
		} else {
			rep.Remaining++
		}
	}
	if !apply {
		return rep, nil
	}
	removed, bytes, err := wal.PruneSegmentsBelow(archiveDir, rep.KeepFrom)
	rep.Segments = removed
	rep.Bytes = bytes
	rep.Applied = err == nil
	return rep, err
}

// filepathGlobMeta lists backup files in dir that have a .meta sidecar,
// returning the backup paths (sidecar path minus the suffix).
func filepathGlobMeta(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("prune: backups dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if len(name) > len(".meta") && name[len(name)-len(".meta"):] == ".meta" {
			out = append(out, filepath.Join(dir, name[:len(name)-len(".meta")]))
		}
	}
	return out, nil
}

// VerifyFileReport is VerifyFile with a machine-readable result: the raw
// salvage scan's page-by-page report (which never needs the store to
// open), then — only if that pass is clean — the record-chain and
// invariant checks of Store.Verify. The returned error is non-nil exactly
// when the store has a problem; the report is non-nil whenever the scan
// itself could run.
func VerifyFileReport(path string, cfg Config) (*RepairReport, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err // a verify must not create the file it verifies
	}
	pager, err := openForScrub(path, cfg)
	if err != nil {
		return nil, err
	}
	rep, serr := core.SalvageScan(pager, storeMetaPage)
	cerr := pager.Close()
	if serr != nil {
		return nil, serr
	}
	if cerr != nil {
		return nil, cerr
	}
	if !rep.Clean {
		return rep, verifyFindings(rep)
	}
	var s *Store
	if cfg.ReadOnly {
		s, err = ReopenFileReadOnly(path, cfg)
	} else {
		s, err = ReopenFile(path, cfg)
	}
	if err != nil {
		return rep, fmt.Errorf("open for verify: %w", err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		return rep, err
	}
	return rep, nil
}

// verifyFindings condenses a non-clean salvage report into one error.
func verifyFindings(rep *RepairReport) error {
	msg := fmt.Sprintf("verify: %d bad page(s), %d lost record(s), %d conflicting record(s)",
		len(rep.BadPages), rep.Lost, rep.Conflicts)
	for _, f := range rep.BadPages {
		msg += fmt.Sprintf("\n  page %d: %s: %s", f.Page, f.Kind, f.Reason)
	}
	for _, iv := range rep.Missing {
		msg += fmt.Sprintf("\n  missing node ids %d..%d", iv.Start, iv.End)
	}
	return fmt.Errorf("%s", msg)
}

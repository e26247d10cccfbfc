package recover

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// BackupMeta is the sidecar (<backup>.meta, JSON) written next to every
// backup: what restore needs to interpret the page image and where in the
// commit history it was cut.
type BackupMeta struct {
	PageSize int    `json:"page_size"`
	Pages    uint32 `json:"pages"`
	MetaPage uint32 `json:"meta_page"`
	// LSN is the last commit folded into this backup. Restore replays
	// archived WAL segments LSN+1.. to roll forward.
	LSN uint64 `json:"lsn"`
	// NoRollForward marks a backup taken without the store's segment
	// archive in hand. The WAL is truncated at every checkpoint, so a
	// quiescent store's log says nothing about how many commits the page
	// image already contains — only the archive's high-water mark pins
	// that. Without it the recorded LSN may undercount the image, and
	// replaying segments LSN+1.. over it would produce a hybrid of two
	// commits; Restore therefore refuses to roll such a backup forward
	// and only materializes it as-is.
	NoRollForward bool `json:"no_roll_forward,omitempty"`
}

// backupMetaSuffix names the sidecar written next to a backup file.
const backupMetaSuffix = ".meta"

// BackupMetaPath returns the sidecar path for a backup file.
func BackupMetaPath(backupPath string) string { return backupPath + backupMetaSuffix }

// ReadBackupMeta reads the sidecar for backupPath.
func ReadBackupMeta(backupPath string) (BackupMeta, error) {
	var m BackupMeta
	data, err := os.ReadFile(BackupMetaPath(backupPath))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("recover: backup sidecar %s: %w", BackupMetaPath(backupPath), err)
	}
	if m.PageSize < pagestore.MinPageSize {
		return m, fmt.Errorf("recover: backup sidecar %s: implausible page size %d", BackupMetaPath(backupPath), m.PageSize)
	}
	return m, nil
}

// backupPager streams every page behind p to w as a dense page image:
// page 0 (reserved) through MaxPageID, with freed and reserved slots
// written as zero pages. Every allocated page is checksum-verified on the
// way out — a backup of corrupt data is worse than no backup, so the copy
// fails instead (run repair first). Returns the number of pages streamed.
func backupPager(p pagestore.Pager, w io.Writer) (uint32, error) {
	ext, ok := p.(interface{ MaxPageID() pagestore.PageID })
	if !ok {
		return 0, ErrNoExtent
	}
	max := ext.MaxPageID()
	buf := make([]byte, p.PageSize())
	zero := make([]byte, p.PageSize())
	if _, err := w.Write(zero); err != nil { // page 0, reserved
		return 0, err
	}
	pages := uint32(1)
	for id := pagestore.PageID(1); id <= max; id++ {
		out := buf
		if err := p.ReadPage(id, buf); err != nil {
			if isUnallocated(err) {
				out = zero
			} else {
				return pages, fmt.Errorf("recover: backup: page %d: %w", id, err)
			}
		} else if err := pagestore.VerifyChecksum(id, buf); err != nil {
			return pages, fmt.Errorf("recover: backup refused: %w (repair the store first)", err)
		}
		if _, err := w.Write(out); err != nil {
			return pages, err
		}
		pages++
	}
	return pages, nil
}

func isUnallocated(err error) bool {
	return err != nil && (errors.Is(err, pagestore.ErrFreedPage) || errors.Is(err, pagestore.ErrPageBounds))
}

// BackupOptions configures BackupFile.
type BackupOptions struct {
	PageSize int
	// MetaPage is recorded in the sidecar (the store's meta page id).
	MetaPage pagestore.PageID
	// Shared opens the source under a shared (read-only) lock, coexisting
	// with other readers; the source is never modified. Committed WAL
	// batches that have not yet been applied to the page file are folded
	// in from the sidecar log as an overlay — the "WAL barrier" — so the
	// backup still cuts at the last durable commit. Without Shared the
	// source is opened exclusively and the log is replayed into the file
	// first.
	Shared bool
	// ArchiveDir names the store's WAL segment archive. In exclusive mode
	// it archives replayed batches so the segment history stays contiguous
	// across the backup; in both modes its high-water mark pins the
	// sidecar LSN to the commit history the page image actually contains
	// (the log alone cannot — it is truncated at every checkpoint). A
	// backup taken without it is marked NoRollForward.
	ArchiveDir string
}

// BackupFile copies the store at src into a consistent backup at dest,
// plus the BackupMeta sidecar at dest+".meta". The backup is a plain page
// file: it can be opened directly or used as a restore base.
func BackupFile(src, dest string, opt BackupOptions) (BackupMeta, error) {
	meta := BackupMeta{
		PageSize: opt.PageSize,
		MetaPage: uint32(opt.MetaPage),
		// Without the archive high-water mark the LSN may undercount the
		// commits already in the image; see the field's doc.
		NoRollForward: opt.ArchiveDir == "",
	}
	if !opt.Shared {
		// Exclusive: open through the WAL, replaying any committed tail into
		// the file first.
		wp, err := wal.OpenWithOptions(src, opt.PageSize, wal.Options{ArchiveDir: opt.ArchiveDir})
		if err != nil {
			return BackupMeta{}, err
		}
		defer wp.Close()
		meta.LSN = wp.LSN()
		return WriteBackup(wp, dest, meta, nil)
	}
	// Shared: the page file under a shared lock with durable-but-unapplied
	// WAL batches overlaid. The LSN is the later of the log's last commit
	// and the archive's high-water mark: the log is truncated at every
	// checkpoint, so on a checkpointed store only the archive knows which
	// commit the page image represents.
	ro, err := wal.OpenReadOnly(src, opt.PageSize)
	if err != nil {
		return BackupMeta{}, fmt.Errorf("recover: backup: WAL barrier: %w", err)
	}
	defer ro.Close()
	meta.LSN = ro.LSN()
	if opt.ArchiveDir != "" {
		archived, err := wal.MaxArchivedLSN(opt.ArchiveDir)
		if err != nil {
			return BackupMeta{}, err
		}
		meta.LSN = max(meta.LSN, archived)
	}
	return WriteBackup(ro, dest, meta, nil)
}

// WriteBackup streams every page behind p into a new backup at dest, then
// writes meta (with Pages filled in) as its sidecar at dest+".meta". Both
// go through wal.ReplaceFile, backup first: the sidecar is the commit
// point — a .meta on disk means its backup is whole and durable, which
// restore, replica bootstrap and PruneArchive rely on. An existing dest is
// refused, and a failed backup leaves neither file behind. wrap is for
// fault injection; nil in production.
func WriteBackup(p pagestore.Pager, dest string, meta BackupMeta, wrap func(wal.File) wal.File) (BackupMeta, error) {
	if _, err := os.Lstat(dest); err == nil {
		return BackupMeta{}, fmt.Errorf("recover: backup: %s: %w", dest, fs.ErrExist)
	}
	err := wal.ReplaceFile(dest, wrap, func(f wal.File) error {
		var err error
		meta.Pages, err = backupPager(p, io.NewOffsetWriter(f, 0))
		return err
	})
	if err != nil {
		os.Remove(dest) // a failed directory fsync leaves it renamed
		return BackupMeta{}, err
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err == nil {
		err = wal.ReplaceFile(BackupMetaPath(dest), wrap, func(f wal.File) error {
			_, err := f.WriteAt(append(data, '\n'), 0)
			return err
		})
	}
	if err != nil {
		os.Remove(BackupMetaPath(dest))
		os.Remove(dest)
		return BackupMeta{}, err
	}
	return meta, nil
}

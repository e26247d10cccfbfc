package recover

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// RestoreOptions configures Restore.
type RestoreOptions struct {
	// PageSize must match the backup (cross-checked against the sidecar).
	PageSize int
	// ArchiveDir holds the WAL segments to roll forward with. Empty means
	// restore the base backup as-is.
	ArchiveDir string
	// TargetLSN is the commit to stop at (point-in-time). Zero restores to
	// the base backup's LSN when ArchiveDir is empty, or to the newest
	// archived segment otherwise.
	TargetLSN uint64
	// WrapFile wraps the staged destination file and the directory fsync
	// for fault injection in tests.
	WrapFile func(wal.File) wal.File
}

// RestoreInfo reports what a restore did.
type RestoreInfo struct {
	PagesCopied     uint32
	SegmentsApplied int
	FinalLSN        uint64
}

// Restore materializes the store state at opt.TargetLSN into destPath:
// the base backup's pages, then every archived segment in (base LSN,
// target] replayed in order. The whole image goes through wal.ReplaceFile
// — the rename is the one atomic step, so a crashed restore leaves at most
// a stale destPath.tmp and never a half-written destination.
func Restore(basePath, destPath string, opt RestoreOptions) (RestoreInfo, error) {
	var info RestoreInfo
	meta, err := ReadBackupMeta(basePath)
	if err != nil {
		return info, fmt.Errorf("recover: restore: %w", err)
	}
	if opt.PageSize != 0 && opt.PageSize != meta.PageSize {
		return info, fmt.Errorf("recover: restore: page size %d requested, backup has %d", opt.PageSize, meta.PageSize)
	}
	// A backup cut without the store's archive in hand records an LSN that
	// may undercount the commits already in its page image; replaying
	// segments over it could produce a hybrid of two commits. Such a base
	// can only be materialized as-is.
	if meta.NoRollForward && (opt.ArchiveDir != "" || opt.TargetLSN != 0) {
		return info, fmt.Errorf("recover: restore: backup %s was taken without the store's segment archive, so its LSN %d is not a roll-forward point; restore it as-is (no archive directory, no target LSN), or take backups with the archive configured", basePath, meta.LSN)
	}
	target := opt.TargetLSN
	if target != 0 && target < meta.LSN {
		return info, fmt.Errorf("recover: restore: target LSN %d predates the base backup (LSN %d); use an older backup", target, meta.LSN)
	}
	if target == 0 && opt.ArchiveDir != "" {
		if target, err = wal.MaxArchivedLSN(opt.ArchiveDir); err != nil {
			return info, err
		}
		if target < meta.LSN {
			target = meta.LSN
		}
	}
	if _, err := os.Stat(destPath); err == nil {
		return info, fmt.Errorf("recover: restore: %s already exists; refusing to overwrite a live store", destPath)
	}
	if _, err := os.Stat(destPath + ".wal"); err == nil {
		return info, fmt.Errorf("recover: restore: %s.wal exists; refusing to restore under a live WAL", destPath)
	}

	// The whole image is staged; only the rename brings destPath into
	// existence.
	err = wal.ReplaceFile(destPath, opt.WrapFile, func(f wal.File) error {
		// Lay down the base image, verifying every page on the way in.
		base, err := os.ReadFile(basePath)
		if err != nil {
			return err
		}
		ps := meta.PageSize
		if len(base) != int(meta.Pages)*ps {
			return fmt.Errorf("recover: restore: base is %d bytes, sidecar says %d pages of %d", len(base), meta.Pages, ps)
		}
		for id := pagestore.PageID(1); int(id) < int(meta.Pages); id++ {
			pg := base[int(id)*ps : (int(id)+1)*ps]
			if err := pagestore.VerifyChecksum(id, pg); err != nil {
				return fmt.Errorf("recover: restore: base backup is damaged: %w", err)
			}
		}
		if _, err := f.WriteAt(base, 0); err != nil {
			return err
		}
		info.PagesCopied = meta.Pages
		info.FinalLSN = meta.LSN

		// Roll forward: archived segments are a contiguous LSN sequence; a
		// gap means the archive cannot reach the target. base stays the
		// image so far, which a segment's deltas apply to.
		prev := func(id pagestore.PageID, buf []byte) error {
			clear(buf)
			if off := int(id) * ps; off < len(base) {
				copy(buf, base[off:])
			}
			return nil
		}
		for lsn := meta.LSN + 1; lsn <= target; lsn++ {
			segPath := filepath.Join(opt.ArchiveDir, wal.SegmentFileName(lsn))
			pages, segLSN, err := wal.ReadSegment(segPath, ps, prev)
			if err != nil {
				if os.IsNotExist(err) {
					return fmt.Errorf("recover: restore: archive gap: segment %d missing (have up to %d, target %d)", lsn, lsn-1, target)
				}
				return err
			}
			if segLSN != 0 && segLSN != lsn {
				return fmt.Errorf("recover: restore: segment file %s carries LSN %d", wal.SegmentFileName(lsn), segLSN)
			}
			for _, p := range pages {
				off := int(p.ID) * ps
				if _, err := f.WriteAt(p.Data, int64(off)); err != nil {
					return err
				}
				if grow := off + ps - len(base); grow > 0 {
					base = append(base, make([]byte, grow)...)
				}
				copy(base[off:], p.Data)
			}
			info.SegmentsApplied++
			info.FinalLSN = lsn
		}
		return nil
	})
	if err != nil {
		os.Remove(destPath) // a failed directory fsync leaves it renamed
		return info, err
	}
	return info, nil
}

package wal

import (
	"fmt"
	"os"

	"repro/internal/pagestore"
)

// ReadOnly is a read-only view of a journaled store at rest: the page file
// with every complete batch of the sidecar log overlaid, exactly the state
// recovery would produce — without writing a byte. Between checkpoints the
// page file alone lacks every commit since the last one (and after a crash
// mid-checkpoint it may hold half of them), so anything that reads a store
// it has not opened through Open — read-only opens, verification, shared
// backup — goes through here.
//
// The page file is held under a shared advisory lock, which excludes a live
// writer, so the log cannot change underneath the overlay.
type ReadOnly struct {
	fp      *pagestore.FilePager
	overlay map[pagestore.PageID][]byte
	lsn     uint64
	max     pagestore.PageID
}

// OpenReadOnly opens the store at path for reading. A missing or empty
// sidecar log means the page file is complete on its own; a torn log tail is
// ignored, as recovery would ignore it.
func OpenReadOnly(path string, pageSize int) (*ReadOnly, error) {
	fp, err := pagestore.OpenFilePagerOpts(path, pageSize, pagestore.FileOpts{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	r := &ReadOnly{fp: fp, max: fp.MaxPageID()}
	logBytes, err := os.ReadFile(path + ".wal")
	if err != nil && !os.IsNotExist(err) {
		fp.Close()
		return nil, err
	}
	if len(logBytes) > 0 {
		if r.overlay, r.lsn, err = ParseLog(logBytes, fp.PageSize()); err != nil {
			fp.Close()
			return nil, fmt.Errorf("read-only open of %s: %w", path, err) // err names the package
		}
		for id := range r.overlay {
			if id > r.max {
				r.max = id
			}
		}
	}
	return r, nil
}

// PageSize implements pagestore.Pager.
func (r *ReadOnly) PageSize() int { return r.fp.PageSize() }

// ReadPage implements pagestore.Pager: the logged image when the log holds
// one, else the page file's.
func (r *ReadOnly) ReadPage(id pagestore.PageID, buf []byte) error {
	if img, ok := r.overlay[id]; ok {
		copy(buf, img)
		return nil
	}
	return r.fp.ReadPage(id, buf)
}

// Allocate implements pagestore.Pager; a read-only view refuses it.
func (r *ReadOnly) Allocate() (pagestore.PageID, error) {
	return pagestore.InvalidPage, pagestore.ErrReadOnlyFile
}

// WritePage implements pagestore.Pager; a read-only view refuses it.
func (r *ReadOnly) WritePage(pagestore.PageID, []byte) error { return pagestore.ErrReadOnlyFile }

// Free implements pagestore.Pager; a read-only view refuses it.
func (r *ReadOnly) Free(pagestore.PageID) error { return pagestore.ErrReadOnlyFile }

// PageCount implements pagestore.Pager.
func (r *ReadOnly) PageCount() int { return r.fp.PageCount() }

// MaxPageID is the scrub extent: the page file's, or a logged page beyond
// it (a page allocated by a commit whose file extension did not survive).
func (r *ReadOnly) MaxPageID() pagestore.PageID { return r.max }

// LSN returns the last commit LSN found in the log (0 when the log is empty
// or pre-LSN): the page file already contains everything before it.
func (r *ReadOnly) LSN() uint64 { return r.lsn }

// Close releases the page file and its shared lock.
func (r *ReadOnly) Close() error { return r.fp.Close() }

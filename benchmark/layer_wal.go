package main

// Layer wal: the journaled pager. Two kinds of number come from here. The
// wrappers below are handed to wal.OpenWithOptions when the ladder opens the
// store, so every commit an in-process insert makes is cut into its
// log-sync, page-sync and truncate spans and counted. The wal row then
// replays a commit of the measured size on a bare wal.Pager, without and
// with an archive directory.

import (
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// walCounts is what the wrappers counted.
type walCounts struct {
	commits    int // log syncs that followed a log write
	syncs      int // every fsync: log, page file, truncate
	logBytes   int64
	dirtyPages int
}

// spanLog wraps the sidecar log.
type spanLog struct {
	wal.File
	l        *ladder
	truncEnd func() int64 // open "wal.truncate" span: Truncate, then its Sync
}

func (f *spanLog) WriteAt(p []byte, off int64) (int, error) {
	f.l.wal.logBytes += int64(len(p))
	return f.File.WriteAt(p, off)
}

func (f *spanLog) Truncate(size int64) error {
	f.truncEnd = f.l.tr.begin("wal.truncate")
	return f.File.Truncate(size)
}

func (f *spanLog) Sync() error {
	f.l.wal.syncs++
	if f.truncEnd != nil {
		err := f.File.Sync()
		f.truncEnd()
		f.truncEnd = nil
		return err
	}
	f.l.wal.commits++
	end := f.l.tr.begin("wal.log_sync")
	err := f.File.Sync()
	end()
	return err
}

// spanPager wraps the page file under the journal.
type spanPager struct {
	wal.InnerPager
	l *ladder
}

func (p *spanPager) WritePage(id pagestore.PageID, buf []byte) error {
	p.l.wal.dirtyPages++
	return p.InnerPager.WritePage(id, buf)
}

func (p *spanPager) Sync() error {
	p.l.wal.syncs++
	end := p.l.tr.begin("wal.page_sync")
	err := p.InnerPager.Sync()
	end()
	return err
}

// openJournal opens a journaled pager on path with the wrappers in.
func (l *ladder) openJournal(path, archiveDir string) (*wal.Pager, error) {
	return wal.OpenWithOptions(path, pagestore.DefaultPageSize, wal.Options{
		ArchiveDir: archiveDir,
		WrapLog:    func(f wal.File) wal.File { return &spanLog{File: f, l: l} },
		WrapPager:  func(p wal.InnerPager) wal.InnerPager { return &spanPager{InnerPager: p, l: l} },
	})
}

// walCommitMetrics reports what the wrappers saw over commits commits.
func (l *ladder) walCommitMetrics(c walCounts) {
	n := float64(c.commits)
	l.set("wal.log_sync_us", l.tr.medianUs("wal.log_sync"), "us")
	l.set("wal.page_sync_us", l.tr.medianUs("wal.page_sync"), "us")
	l.set("wal.truncate_us", l.tr.medianUs("wal.truncate"), "us")
	l.set("wal.syncs_per_commit", ratio(float64(c.syncs), n), "count")
	l.set("wal.log_bytes_per_commit", ratio(float64(c.logBytes), n), "B")
	l.set("wal.dirty_pages_per_commit", ratio(float64(c.dirtyPages), n), "count")
	l.meanDirty = ratio(float64(c.dirtyPages), n)
}

func (l *ladder) walRows() error {
	k := max(1, int(math.Round(l.meanDirty)))
	for _, row := range []struct{ name, metric, archive string }{
		{"wal.commit", "wal.commit_us", ""},
		{"wal.commit_archive", "wal.commit_archive_us", filepath.Join(l.dir, "walrow-archive")},
	} {
		p, err := l.openJournal(filepath.Join(l.dir, row.name+".db"), row.archive)
		if err != nil {
			return fmt.Errorf("wal row: %w", err)
		}
		ids := make([]pagestore.PageID, 64)
		for i := range ids {
			if ids[i], err = p.Allocate(); err != nil {
				p.Close()
				return fmt.Errorf("wal row: %w", err)
			}
		}
		page := make([]byte, pagestore.DefaultPageSize)
		for c := 0; c < l.n(300); c++ {
			l.tr.nextReq()
			end := l.tr.begin(row.name)
			for i := 0; i < k; i++ {
				page[64] = byte(c) // a different image each commit
				pagestore.StampChecksum(page)
				if err = p.WritePage(ids[(c*k+i)%len(ids)], page); err != nil {
					break
				}
			}
			if err == nil {
				err = p.Commit()
			}
			end()
			if err != nil {
				p.Close()
				return fmt.Errorf("wal row: %w", err)
			}
		}
		if err := p.Close(); err != nil {
			return fmt.Errorf("wal row: %w", err)
		}
		l.set(row.metric, l.tr.medianUs(row.name), "us")
	}
	return nil
}

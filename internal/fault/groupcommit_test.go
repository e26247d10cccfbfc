package fault_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/wal"
)

// logWatch sits under the journal's log and under its archive segments and
// checks the ordering the replication invariant rests on: a segment may be
// written only after a log fsync that started after its batch was appended.
// Positions are cumulative bytes appended, so checkpoint truncations do not
// reset them.
type logWatch struct {
	mu       sync.Mutex
	appended int64            // bytes appended to the log so far
	durable  int64            // appended, as of the start of the last completed fsync
	endOf    map[uint64]int64 // batch LSN -> appended after its write
	logSyncs int
	early    []uint64 // segments written ahead of the durable log
}

// lsnOnly is the delta base of a parse that wants only the batch's LSN.
func lsnOnly(pagestore.PageID, []byte) error { return nil }

type watchedLog struct {
	wal.File
	w *logWatch
}

func (f watchedLog) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if err == nil {
		if _, lsn, perr := wal.ParseSegment("log batch", p, cmPageSize, lsnOnly); perr == nil {
			f.w.mu.Lock()
			f.w.appended += int64(len(p))
			f.w.endOf[lsn] = f.w.appended
			f.w.mu.Unlock()
		}
	}
	return n, err
}

func (f watchedLog) Sync() error {
	f.w.mu.Lock()
	covers := f.w.appended
	f.w.logSyncs++
	f.w.mu.Unlock()
	err := f.File.Sync()
	if err == nil {
		f.w.mu.Lock()
		if covers > f.w.durable {
			f.w.durable = covers
		}
		f.w.mu.Unlock()
	}
	return err
}

type watchedSegment struct {
	wal.File
	w *logWatch
}

func (f watchedSegment) WriteAt(p []byte, off int64) (int, error) {
	if _, lsn, err := wal.ParseSegment("segment", p, cmPageSize, lsnOnly); err == nil {
		f.w.mu.Lock()
		if end, ok := f.w.endOf[lsn]; !ok || end > f.w.durable {
			f.w.early = append(f.w.early, lsn)
		}
		f.w.mu.Unlock()
	}
	return f.File.WriteAt(p, off)
}

// slowSyncLog routes only the log's fsync through the latency injector:
// appends stay fast, as on a device with a write cache.
type slowSyncLog struct {
	wal.File
	slow *fault.File
}

func (f slowSyncLog) Sync() error { return f.slow.Sync() }

// Eight writers insert and flush against a log whose fsync is slow. While
// one flush's fsync sleeps, the others stage behind it and share the next
// one: log fsyncs stay well under the number of commits. Every
// acknowledged insert survives a crash, LSNs have no gaps, and the archive
// holds exactly one segment per LSN, none written ahead of the durable log.
func TestGroupCommitUnderSlowLog(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "store.db")
	arch := filepath.Join(dir, "segments")
	slow := fault.NewInjector(fault.Config{})
	watch := &logWatch{endOf: make(map[uint64]int64)}
	wp, err := wal.OpenWithOptions(db, cmPageSize, wal.Options{
		ArchiveDir: arch,
		WrapLog: func(f wal.File) wal.File {
			w := watchedLog{f, watch}
			return slowSyncLog{File: w, slow: fault.NewFile(slow, w)}
		},
		WrapSegment: func(f wal.File) wal.File { return watchedSegment{f, watch} },
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{Pager: wp, PageSize: cmPageSize, MaxRangeTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := axml.LoadXMLString(s, seedDocOf(lazyGeometry().orders)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Inserts land inside one small order element: cheap next to the fsync,
	// as a single-order insert is in production, so that writers reach the
	// log while the previous fsync is still running.
	target, ok, err := axml.QueryFirst(s, `/orders/order[@id="7"]`)
	if err != nil || !ok {
		t.Fatalf("no target order: %v", err)
	}
	before := s.Stats()
	watch.mu.Lock()
	syncsBefore := watch.logSyncs
	watch.mu.Unlock()

	const writers, rounds = 8, 12
	slow.ArmLatency(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				frag, err := axml.ParseFragment(fmt.Sprintf(`<e n="w%d-r%d"/>`, w, r))
				if err == nil {
					_, err = s.InsertIntoLast(target, frag)
				}
				if err == nil {
					err = s.Flush()
				}
				if err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	slow.DisarmLatency()
	if t.Failed() {
		return
	}

	after := s.Stats()
	commits := after.WALCommits - before.WALCommits
	watch.mu.Lock()
	// Every checkpoint ends with one log fsync (after the truncate); the
	// rest are commit fsyncs.
	logFsyncs := uint64(watch.logSyncs-syncsBefore) - (after.WALCheckpoints - before.WALCheckpoints)
	early := watch.early
	watch.mu.Unlock()
	t.Logf("%d flushes, %d commits, %d log fsyncs, %d checkpoints", writers*rounds, commits, logFsyncs, after.WALCheckpoints-before.WALCheckpoints)
	if commits == 0 || commits > writers*rounds {
		t.Fatalf("%d commits for %d flushes", commits, writers*rounds)
	}
	if logFsyncs >= commits {
		t.Errorf("%d log fsyncs for %d commits: nothing was shared", logFsyncs, commits)
	}
	if len(early) > 0 {
		t.Errorf("segments written ahead of the durable log: LSNs %v", early)
	}
	lsn := wp.LSN()
	if lsn != after.ArchiveLSN || lsn != before.ArchiveLSN+commits {
		t.Errorf("LSN %d, stats %d, want %d + %d commits", lsn, after.ArchiveLSN, before.ArchiveLSN, commits)
	}

	// Crash: no close, no checkpoint. Recovery must produce every
	// acknowledged insert, and the archive one segment per LSN.
	if err := wp.CloseWithoutCommit(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(arch)
	if err != nil {
		t.Fatal(err)
	}
	if run := wal.Contiguous(segs, 0); uint64(len(run)) != lsn || len(segs) != len(run) {
		t.Errorf("archive: %d segments, %d contiguous from 1, want exactly %d", len(segs), len(run), lsn)
	}
	xml := validate(t, db)
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			if !strings.Contains(xml, fmt.Sprintf(`n="w%d-r%d"`, w, r)) {
				t.Fatalf("acknowledged insert w%d-r%d lost across the crash", w, r)
			}
		}
	}
}

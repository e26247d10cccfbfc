package pagestore

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testPagers(t *testing.T) map[string]Pager {
	t.Helper()
	fp, err := OpenFilePager(filepath.Join(t.TempDir(), "pages.db"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Pager{
		"mem":  NewMemPager(1024),
		"file": fp,
	}
}

func TestPagerBasics(t *testing.T) {
	for name, p := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			defer p.Close()
			if p.PageSize() != 1024 {
				t.Fatalf("page size = %d", p.PageSize())
			}
			id1, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id2, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id1 == InvalidPage || id2 == InvalidPage || id1 == id2 {
				t.Fatalf("bad ids: %d %d", id1, id2)
			}
			if p.PageCount() != 2 {
				t.Fatalf("count = %d", p.PageCount())
			}
			buf := make([]byte, 1024)
			for i := range buf {
				buf[i] = byte(i)
			}
			if err := p.WritePage(id1, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 1024)
			if err := p.ReadPage(id1, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatal("read != write")
			}
			// Fresh page reads as zeros.
			if err := p.ReadPage(id2, got); err != nil {
				t.Fatal(err)
			}
			for _, b := range got {
				if b != 0 {
					t.Fatal("fresh page not zeroed")
				}
			}
		})
	}
}

func TestPagerFreeAndReuse(t *testing.T) {
	for name, p := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			defer p.Close()
			id1, _ := p.Allocate()
			id2, _ := p.Allocate()
			if err := p.Free(id1); err != nil {
				t.Fatal(err)
			}
			if p.PageCount() != 1 {
				t.Fatalf("count after free = %d", p.PageCount())
			}
			buf := make([]byte, 1024)
			if err := p.ReadPage(id1, buf); err == nil {
				t.Error("read of freed page should fail")
			}
			if err := p.WritePage(id1, buf); err == nil {
				t.Error("write of freed page should fail")
			}
			if err := p.Free(id1); err == nil {
				t.Error("double free should fail")
			}
			// Freed id is reused.
			id3, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id3 != id1 {
				t.Errorf("expected reuse of %d, got %d", id1, id3)
			}
			_ = id2
		})
	}
}

func TestPagerInvalidIDs(t *testing.T) {
	fp, err := OpenFilePager(filepath.Join(t.TempDir(), "p.db"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	buf := make([]byte, 1024)
	if err := fp.ReadPage(InvalidPage, buf); err == nil {
		t.Error("read page 0 should fail")
	}
	if err := fp.ReadPage(999, buf); err == nil {
		t.Error("read unallocated page should fail")
	}
}

func TestPagerClosed(t *testing.T) {
	for name, p := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := p.Allocate()
			p.Close()
			buf := make([]byte, 1024)
			if _, err := p.Allocate(); err == nil {
				t.Error("allocate after close should fail")
			}
			if err := p.ReadPage(id, buf); err == nil {
				t.Error("read after close should fail")
			}
			if err := p.WritePage(id, buf); err == nil {
				t.Error("write after close should fail")
			}
			if err := p.Free(id); err == nil {
				t.Error("free after close should fail")
			}
		})
	}
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	fp, err := OpenFilePager(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fp.Allocate()
	buf := make([]byte, 1024)
	copy(buf, "hello persistent world")
	if err := fp.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := fp.Sync(); err != nil {
		t.Fatal(err)
	}
	fp.Close()

	fp2, err := OpenFilePager(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	got := make([]byte, 1024)
	if err := fp2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello persistent world")) {
		t.Errorf("persisted data lost: %q", got[:30])
	}
}

// TestFilePagerReadsBesideSync: reads share the pager's lock with Sync and
// with each other, writes and Close do not. A ReadPage completes while the
// read side is held, as it is across a Sync's fsync; readers and syncers
// running beside a Close see their pages or ErrClosed, never a read of a
// closed file. Run under -race by scripts/check.sh.
func TestFilePagerReadsBesideSync(t *testing.T) {
	fp, err := OpenFilePager(filepath.Join(t.TempDir(), "shared.db"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	page := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 1024) }
	var ids []PageID
	for i := 0; i < pages; i++ {
		id, err := fp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.WritePage(id, page(i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	fp.mu.RLock() // a Sync in its fsync
	read := make(chan error, 1)
	go func() { read <- fp.ReadPage(ids[0], make([]byte, 1024)) }()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadPage waited for a Sync")
	}
	fp.mu.RUnlock()

	var wg sync.WaitGroup
	var ops atomic.Int64
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 1024)
			for k := g; ; k++ {
				ops.Add(1)
				var err error
				if g == 0 {
					err = fp.Sync()
				} else if err = fp.ReadPage(ids[k%pages], buf); err == nil && !bytes.Equal(buf, page(k%pages)) {
					err = errors.New("page read back wrong")
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- err
					}
					return
				}
			}
		}(g)
	}
	for ops.Load() < 400 {
		runtime.Gosched()
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("beside Close: %v", err)
	}
}

func TestPagerMinimumPageSize(t *testing.T) {
	p := NewMemPager(10)
	if p.PageSize() < MinPageSize {
		t.Errorf("page size %d below minimum", p.PageSize())
	}
	p2 := NewMemPager(0)
	if p2.PageSize() != DefaultPageSize {
		t.Errorf("default page size = %d", p2.PageSize())
	}
}

// WriteBack leaves what a page reads unchanged, takes ranges with clean
// pages and an empty range, and refuses a closed pager like Sync does.
func TestFilePagerWriteBack(t *testing.T) {
	fp, err := OpenFilePager(filepath.Join(t.TempDir(), "p.db"), 1024)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := fp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range []PageID{ids[0], ids[2], ids[4]} {
		if err := fp.WritePage(id, bytes.Repeat([]byte{byte(id)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fp.WriteBack(ids[0], ids[4]); err != nil {
		t.Fatal(err)
	}
	if err := fp.WriteBack(ids[4], ids[0]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	for _, id := range []PageID{ids[0], ids[2], ids[4]} {
		if err := fp.ReadPage(id, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(id)}, 1024)) {
			t.Fatalf("page %d after writeback: err %v, first byte %d", id, err, got[0])
		}
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fp.WriteBack(ids[0], ids[4]); !errors.Is(err, ErrClosed) {
		t.Fatalf("writeback on a closed pager: %v", err)
	}
}

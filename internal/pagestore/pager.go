// Package pagestore is the block/page storage substrate of the XML store.
//
// It provides fixed-size pages (the paper's "blocks") behind a Pager
// interface with in-memory and file-backed implementations, an LRU buffer
// pool with pin/unpin semantics, and an ordered record layer: doubly-chained
// slotted pages holding variable-length records in a maintained order, with
// overflow chains for records larger than a page. The store serializes each
// Range as one record; document order is the record order along the page
// chain — exactly the storage model of Sections 3.3 and 4.4 of the paper.
package pagestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// PageID identifies a page within a Pager. Zero is never a valid page.
type PageID uint32

// InvalidPage is the nil page id.
const InvalidPage PageID = 0

// Default geometry.
const (
	DefaultPageSize = 8192
	MinPageSize     = 512
)

// Pager errors.
var (
	ErrPageBounds = errors.New("pagestore: page id out of bounds")
	ErrClosed     = errors.New("pagestore: pager is closed")
	ErrFreedPage  = errors.New("pagestore: access to freed page")
	// ErrStoreLocked is returned by OpenFilePager when another process holds
	// the store file's advisory lock: a second writer would destroy the WAL
	// discipline, so opens fail fast instead of corrupting the store.
	ErrStoreLocked = errors.New("pagestore: store file locked by another process")
	// ErrReadOnlyFile is returned by mutating operations on a pager opened
	// with FileOpts.ReadOnly.
	ErrReadOnlyFile = errors.New("pagestore: pager opened read-only")
)

// Pager is raw page I/O: allocation, reads, writes and freeing.
// Implementations must be safe for concurrent use.
type Pager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Allocate reserves a new zeroed page and returns its id.
	Allocate() (PageID, error)
	// ReadPage fills buf (len == PageSize) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len == PageSize) as the page contents.
	WritePage(id PageID, buf []byte) error
	// Free returns the page to the allocator for reuse.
	Free(id PageID) error
	// PageCount returns the number of pages ever allocated and not freed.
	PageCount() int
	// Close releases resources.
	Close() error
}

// MemPager is an in-memory Pager. The zero value is not usable; call
// NewMemPager.
type MemPager struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	free     []PageID
	next     PageID
	closed   bool
}

// NewMemPager returns an in-memory pager with the given page size
// (DefaultPageSize if size <= 0).
func NewMemPager(size int) *MemPager {
	if size <= 0 {
		size = DefaultPageSize
	}
	if size < MinPageSize {
		size = MinPageSize
	}
	return &MemPager{
		pageSize: size,
		pages:    make(map[PageID][]byte),
		next:     1,
	}
}

// PageSize implements Pager.
func (p *MemPager) PageSize() int { return p.pageSize }

// Allocate implements Pager.
func (p *MemPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrClosed
	}
	var id PageID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = p.next
		p.next++
	}
	p.pages[id] = make([]byte, p.pageSize)
	return id, nil
}

// check validates id for access: distinguishing never-allocated ids
// (ErrPageBounds) from freed ones (ErrFreedPage) keeps both pager
// implementations reporting the same error for the same misuse.
func (p *MemPager) check(id PageID) error {
	if p.closed {
		return ErrClosed
	}
	if id == InvalidPage || id >= p.next {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	if _, ok := p.pages[id]; !ok {
		return fmt.Errorf("%w: %d", ErrFreedPage, id)
	}
	return nil
}

// ReadPage implements Pager.
func (p *MemPager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id); err != nil {
		return err
	}
	copy(buf, p.pages[id])
	return nil
}

// WritePage implements Pager.
func (p *MemPager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id); err != nil {
		return err
	}
	copy(p.pages[id], buf)
	return nil
}

// Free implements Pager.
func (p *MemPager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id); err != nil {
		return err
	}
	delete(p.pages, id)
	p.free = append(p.free, id)
	return nil
}

// PageCount implements Pager.
func (p *MemPager) PageCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pages)
}

// MaxPageID returns the highest page id ever allocated (scrub extent).
func (p *MemPager) MaxPageID() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next - 1
}

// Close implements Pager.
func (p *MemPager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.pages = nil
	return nil
}

// FilePager stores pages in a single file. Page id N lives at file offset
// N*pageSize (offset 0, page id 0, is a reserved header slot, which keeps
// id arithmetic trivial and id 0 invalid). Freed pages are tracked in memory
// and reused before the file grows; the free list is rebuilt as empty on
// reopen, which wastes at most the previously-freed pages.
//
// Opening takes an advisory flock on the file — exclusive for writable
// pagers, shared for read-only ones — so two OS processes can never both
// hold a writable view of the same store: the second open fails fast with
// ErrStoreLocked instead of silently destroying the WAL discipline.
type FilePager struct {
	// mu's read side is taken by ReadPage, Sync and the counters, which only
	// read the allocation state: concurrent preads run in parallel, and a
	// checkpoint's fsync does not stall them. Writes, allocation, Free and
	// Close take the write side.
	mu       sync.RWMutex
	f        *os.File
	pageSize int
	npages   int // allocated pages, excluding the reserved slot
	highest  PageID
	free     []PageID
	freed    map[PageID]bool
	zero     []byte // one zero page, what Allocate extends the file with; never written
	readOnly bool
	closed   bool
}

// FileOpts tunes OpenFilePagerOpts.
type FileOpts struct {
	// ReadOnly opens the file O_RDONLY under a shared advisory lock:
	// several read-only pagers may coexist, but a writable pager excludes
	// them (and vice versa). Mutating operations return ErrReadOnlyFile.
	ReadOnly bool
	// NoLock skips the advisory lock entirely (fault-injection harnesses
	// that reopen the same file in-process). Production opens must not use
	// it.
	NoLock bool
}

// OpenFilePager opens (creating if necessary) a writable page file at path
// under an exclusive advisory lock.
func OpenFilePager(path string, pageSize int) (*FilePager, error) {
	return OpenFilePagerOpts(path, pageSize, FileOpts{})
}

// OpenFilePagerOpts opens a page file with explicit locking/mutability
// options. If another process holds a conflicting advisory lock, it fails
// fast with ErrStoreLocked.
func OpenFilePagerOpts(path string, pageSize int, opts FileOpts) (*FilePager, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < MinPageSize {
		pageSize = MinPageSize
	}
	flags := os.O_RDWR | os.O_CREATE
	if opts.ReadOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if !opts.NoLock {
		if err := flockFile(f, !opts.ReadOnly); err != nil {
			f.Close()
			return nil, err
		}
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fp := &FilePager{f: f, pageSize: pageSize, freed: make(map[PageID]bool), readOnly: opts.ReadOnly}
	if st.Size() > 0 {
		n := st.Size() / int64(pageSize)
		if n > 0 {
			fp.highest = PageID(n - 1)
			fp.npages = int(n - 1)
		}
	}
	return fp, nil
}

// PageSize implements Pager.
func (p *FilePager) PageSize() int { return p.pageSize }

// Allocate implements Pager.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrClosed
	}
	if p.readOnly {
		return InvalidPage, ErrReadOnlyFile
	}
	var id PageID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
		delete(p.freed, id)
	} else {
		p.highest++
		id = p.highest
	}
	p.npages++
	if p.zero == nil {
		p.zero = make([]byte, p.pageSize)
	}
	if _, err := p.f.WriteAt(p.zero, int64(id)*int64(p.pageSize)); err != nil {
		return InvalidPage, err
	}
	return id, nil
}

func (p *FilePager) check(id PageID) error {
	if p.closed {
		return ErrClosed
	}
	if id == InvalidPage || id > p.highest {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	if p.freed[id] {
		return fmt.Errorf("%w: %d", ErrFreedPage, id)
	}
	return nil
}

// ReadPage implements Pager.
func (p *FilePager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.check(id); err != nil {
		return err
	}
	_, err := p.f.ReadAt(buf[:p.pageSize], int64(id)*int64(p.pageSize))
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Page allocated but never written past: zero-fill.
		for i := range buf[:p.pageSize] {
			buf[i] = 0
		}
		return nil
	}
	return err
}

// WritePage implements Pager.
func (p *FilePager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return ErrReadOnlyFile
	}
	if err := p.check(id); err != nil {
		return err
	}
	_, err := p.f.WriteAt(buf[:p.pageSize], int64(id)*int64(p.pageSize))
	return err
}

// Free implements Pager.
func (p *FilePager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readOnly {
		return ErrReadOnlyFile
	}
	if err := p.check(id); err != nil {
		return err
	}
	p.free = append(p.free, id)
	p.freed[id] = true
	p.npages--
	return nil
}

// PageCount implements Pager.
func (p *FilePager) PageCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.npages
}

// MaxPageID returns the highest page id ever allocated (scrub extent).
func (p *FilePager) MaxPageID() PageID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.highest
}

// Sync flushes the underlying file to stable storage. A read-only pager
// has nothing to flush.
func (p *FilePager) Sync() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if p.readOnly {
		return nil
	}
	return p.f.Sync()
}

// Close implements Pager.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.f.Close()
}

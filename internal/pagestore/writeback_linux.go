//go:build linux && !arm

package pagestore

import "syscall"

// WriteBack writes the dirty pages among first..last out to the device and
// waits for them, without the cache flush and metadata commit of a Sync: a
// caller writing many pages before a Sync uses it to keep the device's queue
// short for other files' fsyncs in the meantime. It makes nothing durable.
func (p *FilePager) WriteBack(first, last PageID) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if p.readOnly || last < first {
		return nil
	}
	ps := int64(p.pageSize)
	return syscall.SyncFileRange(int(p.f.Fd()), int64(first)*ps, (int64(last-first)+1)*ps, syncFileRangeWaitBefore|syncFileRangeWrite|syncFileRangeWaitAfter)
}

// sync_file_range flags (linux/fs.h), which package syscall does not name.
const (
	syncFileRangeWaitBefore = 1
	syncFileRangeWrite      = 2
	syncFileRangeWaitAfter  = 4
)

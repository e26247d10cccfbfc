//go:build !linux || arm

package pagestore

// WriteBack does nothing where package syscall offers no ranged writeback
// (sync_file_range is Linux's, and 32-bit ARM's takes other arguments): the
// pages reach the device at the next Sync.
func (p *FilePager) WriteBack(first, last PageID) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	return nil
}

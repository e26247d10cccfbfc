//go:build !linux

package wal

import "os"

// datasync is a full fsync where the OS offers nothing narrower to the
// standard library.
func datasync(f *os.File) error { return f.Sync() }

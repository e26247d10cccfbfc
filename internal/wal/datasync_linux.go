//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasync flushes f's data and only the metadata needed to read it back
// (its size, when that changed), not its timestamps.
func datasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }

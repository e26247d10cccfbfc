package wal

import (
	"os"
	"path/filepath"
)

// ReplaceFile durably replaces the small file at path with whatever write
// puts into a fresh file. The bytes are staged in path+".tmp" in the same
// directory, fsynced, closed and renamed over path; then the directory is
// fsynced so the rename itself survives power loss. A reader of path sees
// the old bytes or the new ones, never a mix, and a crash leaves at most a
// stale .tmp that nothing reads and the next ReplaceFile truncates.
//
// wrap, when set, wraps the staged file and the directory handle, so fault
// injection counts every write and both fsyncs as I/O boundaries. On any
// failure the staged file is removed; only a failed directory fsync leaves
// the new bytes in place (renamed, not yet durable).
//
// This is the one way a sidecar (term file, replica position, backup and
// its .meta, a restored store) reaches disk. Archive segments, the log and
// the page file keep their own write paths: they sit on the commit path and
// their CRCs detect a torn write.
func ReplaceFile(path string, wrap func(File) File, write func(File) error) error {
	tmp := path + ".tmp"
	raw, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	f := wrapFile(raw, wrap)
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	d := wrapFile(dir, wrap)
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func wrapFile(f *os.File, wrap func(File) File) File {
	if wrap == nil {
		return f
	}
	return wrap(f)
}

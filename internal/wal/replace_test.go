package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
)

var errKilled = errors.New("test: process killed")

// killer simulates process death inside ReplaceFile. It counts the
// helper's I/O boundaries — create (the staged file reaching wrap), write,
// fsync, close, rename (the directory reaching wrap, which happens only
// after the rename), directory fsync, directory close — and at boundary
// `at` panics, so none of ReplaceFile's cleanup runs and the disk is left
// exactly as a killed process leaves it. A torn kill at a write lets half
// the buffer reach the file first.
type killer struct {
	at    int
	torn  bool
	ops   []string
	wraps int
}

func (k *killer) boundary(op string) {
	k.ops = append(k.ops, op)
	if len(k.ops) == k.at {
		panic(errKilled)
	}
}

func (k *killer) wrap(f File) File {
	k.wraps++
	if k.wraps == 1 {
		k.boundary("create")
	} else {
		k.boundary("rename")
	}
	return &killFile{File: f, k: k}
}

type killFile struct {
	File
	k *killer
}

func (f *killFile) WriteAt(p []byte, off int64) (int, error) {
	if f.k.torn && len(f.k.ops)+1 == f.k.at {
		f.File.WriteAt(p[:len(p)/2], off)
	}
	f.k.boundary("write")
	return f.File.WriteAt(p, off)
}

func (f *killFile) Sync() error  { f.k.boundary("fsync"); return f.File.Sync() }
func (f *killFile) Close() error { f.k.boundary("close"); return f.File.Close() }

func writeBytes(b []byte) func(File) error {
	return func(f File) error {
		_, err := f.WriteAt(b, 0)
		return err
	}
}

// replaceKilled runs ReplaceFile under k and reports whether it was killed.
func replaceKilled(t *testing.T, path string, k *killer, data []byte) (killed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if r != errKilled {
				panic(r)
			}
			killed = true
		}
	}()
	if err := ReplaceFile(path, k.wrap, writeBytes(data)); err != nil {
		t.Fatalf("unfaulted boundary failed: %v", err)
	}
	return false
}

// checkHolds fails unless path holds exactly want (nil: path absent).
func checkHolds(t *testing.T, path string, want []byte, what string) {
	t.Helper()
	got, err := os.ReadFile(path)
	switch {
	case want == nil && !os.IsNotExist(err):
		t.Fatalf("%s: %s exists (%q, %v), want it absent", what, path, got, err)
	case want != nil && err != nil:
		t.Fatalf("%s: %v", what, err)
	case want != nil && !bytes.Equal(got, want):
		t.Fatalf("%s: %s holds %q, want %q", what, path, got, want)
	}
}

// A crash at every I/O boundary of ReplaceFile — create, write (whole or
// torn), fsync, close, rename, directory fsync — leaves the old bytes
// before the rename and the new bytes from it on, never torn or empty
// bytes. A leftover .tmp is never read as the file, and the next
// ReplaceFile goes through it. The same holds, with no .tmp left at all,
// when the fault layer fails an operation and ReplaceFile cleans up.
func TestReplaceFileCrashSweep(t *testing.T) {
	newBytes := []byte(`{"epoch":7,"voted_epoch":7}`)
	for _, old := range [][]byte{nil, []byte(`{"epoch":6,"voted_epoch":6}`)} {
		setup := func(t *testing.T, name string) string {
			path := filepath.Join(t.TempDir(), name)
			if old != nil {
				if err := os.WriteFile(path, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return path
		}
		t.Run(fmt.Sprintf("old=%v", old != nil), func(t *testing.T) {
			// Process death: discover the boundaries, then die at each.
			count := &killer{}
			if replaceKilled(t, setup(t, "count"), count, newBytes) {
				t.Fatal("counting run was killed")
			}
			want := []string{"create", "write", "fsync", "close", "rename", "fsync", "close"}
			if !slices.Equal(count.ops, want) {
				t.Fatalf("boundaries %v, want %v", count.ops, want)
			}
			for at := 1; at <= len(count.ops); at++ {
				for _, torn := range []bool{false, true} {
					if torn && count.ops[at-1] != "write" {
						continue
					}
					what := fmt.Sprintf("killed at %s (boundary %d, torn=%v)", count.ops[at-1], at, torn)
					path := setup(t, fmt.Sprintf("kill-%d-%v", at, torn))
					if !replaceKilled(t, path, &killer{at: at, torn: torn}, newBytes) {
						t.Fatalf("%s: never killed", what)
					}
					if at >= slices.Index(want, "rename")+1 {
						checkHolds(t, path, newBytes, what)
					} else {
						checkHolds(t, path, old, what)
					}
					if err := ReplaceFile(path, nil, writeBytes(newBytes)); err != nil {
						t.Fatalf("%s: rerun: %v", what, err)
					}
					checkHolds(t, path, newBytes, what+", rerun")
					checkHolds(t, path+".tmp", nil, what+", rerun")
				}
			}

			// Injected failures: every op the fault layer counts (the write,
			// the file fsync, the directory fsync), whole and torn.
			inj := fault.NewInjector(fault.Config{})
			wrap := func(f File) File { return fault.NewFile(inj, f) }
			if err := ReplaceFile(setup(t, "inj-count"), wrap, writeBytes(newBytes)); err != nil {
				t.Fatal(err)
			}
			n := inj.Ops()
			if n != 3 {
				t.Fatalf("fault layer counted %d ops, want write, fsync, directory fsync", n)
			}
			for k := 1; k <= n; k++ {
				for _, torn := range []bool{false, true} {
					what := fmt.Sprintf("fault at op %d (torn=%v)", k, torn)
					path := setup(t, fmt.Sprintf("inj-%d-%v", k, torn))
					inj := fault.NewInjector(fault.Config{Seed: int64(k), CrashAtOp: k, TornWrite: torn})
					wrap := func(f File) File { return fault.NewFile(inj, f) }
					if err := ReplaceFile(path, wrap, writeBytes(newBytes)); !errors.Is(err, fault.ErrCrashed) {
						t.Fatalf("%s: err %v, want the injected crash", what, err)
					}
					if k == n {
						checkHolds(t, path, newBytes, what) // renamed, not yet durable
					} else {
						checkHolds(t, path, old, what)
					}
					checkHolds(t, path+".tmp", nil, what)
				}
			}
		})
	}
}

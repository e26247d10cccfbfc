package axml_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	axml "repro"
)

// TestUncommittedBatchNotDurable: an open batch is invisible on disk. Its
// function inserts <uncommitted/> and parks; another writer inserts and
// flushes meanwhile; the store's files, copied at that moment and opened
// read-only as a crash would leave them, hold no <uncommitted/>. The batch
// then commits, and the other writer's flush runs after it.
func TestUncommittedBatchNotDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.db")
	cfg := axml.Config{PageSize: 512}
	s, err := axml.OpenFileWAL(path, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root, err := axml.LoadXMLString(s, `<doc><a/></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	batchDone := make(chan error, 1)
	go func() {
		batchDone <- s.Update(context.Background(), func(b *axml.Batch) error {
			frag, err := axml.ParseFragment(`<uncommitted/>`)
			if err != nil {
				return err
			}
			if _, err := b.InsertIntoLast(root, frag); err != nil {
				return err
			}
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	otherDone := make(chan error, 1)
	go func() {
		frag, err := axml.ParseFragment(`<other/>`)
		if err == nil {
			_, err = s.InsertIntoLast(root, frag)
		}
		if err == nil {
			err = s.Flush()
		}
		otherDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the other writer reach the store

	crashed := filepath.Join(t.TempDir(), "crashed.db")
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(path + suffix)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashed+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := axml.ReopenFileReadOnly(crashed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := axml.QueryValue(ro, `count(//uncommitted)`)
	ro.Close()
	if err != nil || n != "0" {
		t.Fatalf("the files of a store with an open batch hold %s <uncommitted/> (%v), want 0", n, err)
	}

	close(release)
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	if err := <-otherDone; err != nil {
		t.Fatal(err)
	}
	if got, err := s.XMLString(); err != nil || got != `<doc><a/><uncommitted/><other/></doc>` {
		t.Fatalf("after the commit: %s (%v)", got, err)
	}
}

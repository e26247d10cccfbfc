package wal

import (
	"testing"

	"repro/internal/pagestore"
)

// TestSpareCoversTheOverlay holds WritePage to reusing the page buffers a
// checkpoint gives back: with 64 pages rewritten between checkpoints, every
// buffer the overlay releases must come back to WritePage, so a round of
// rewrites, a commit and a checkpoint allocates no page buffer. A free list
// capped at 16 buffers made this round allocate 48.
func TestSpareCoversTheOverlay(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	path, _ := tempPaths(t)
	const pageSize, pages = 512, 64
	p, err := Open(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	buf := make([]byte, pageSize)
	round := func() {
		buf[0]++
		for _, id := range ids {
			if err := p.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	if n := testing.AllocsPerRun(10, round); n >= pages/2 {
		t.Errorf("a round of %d page rewrites and a checkpoint allocated %.0f times; its page buffers should come from the spare list", pages, n)
	}
}

package main

// Layer pagestore: the buffer pool over the page file the server just
// closed — a resident page seen through View (the point-read fast path)
// and a page fetched after eviction (pread + checksum).

import (
	"fmt"

	"repro/internal/pagestore"
)

const (
	viewBatch = 100 // Views per span: one takes tens of nanoseconds
	missBatch = 10  // evict-and-fetch pairs per span
)

func (l *ladder) pagestoreRows() error {
	pager, err := pagestore.OpenFilePager(l.e.srv.db, pagestore.DefaultPageSize)
	if err != nil {
		return fmt.Errorf("pagestore row: %w", err)
	}
	pool := pagestore.NewBufferPool(pager, 256)
	defer pool.Close() // closes the pager, releasing the file lock

	// Pages that fetch cleanly: page 0 is reserved and freed pages may not
	// carry a valid checksum.
	var live []pagestore.PageID
	for id := pagestore.PageID(1); id <= pager.MaxPageID(); id++ {
		if f, err := pool.Fetch(id); err == nil {
			live = append(live, id)
			if err := pool.Unpin(f, false); err != nil {
				return err
			}
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("pagestore row: no readable page in %s", l.e.srv.db)
	}

	resident := live[max(0, len(live)-128):] // the last ones fetched: still in the pool
	var viewNs []float64
	var sink byte
	for k := 0; k < l.n(200); k++ {
		l.tr.nextReq()
		end := l.tr.begin("pagestore.view")
		for j := 0; j < viewBatch; j++ {
			id := resident[(k*viewBatch+j)%len(resident)]
			if err := pool.View(id, func(data []byte) error { sink ^= data[len(data)/2]; return nil }); err != nil {
				return fmt.Errorf("pagestore row: View(%d): %w", id, err)
			}
		}
		viewNs = append(viewNs, float64(end())/viewBatch)
	}
	calibSink.Add(uint64(sink))
	l.set("pagestore.view_ns", median(viewNs), "ns")

	// A four-frame pool cycled over more than four pages misses every time.
	small := pagestore.NewBufferPool(pager, 4)
	var missUs []float64
	for k := 0; k < l.n(200); k++ {
		l.tr.nextReq()
		end := l.tr.begin("pagestore.miss")
		for j := 0; j < missBatch; j++ {
			f, err := small.Fetch(live[(k*missBatch+j)%len(live)])
			if err != nil {
				return fmt.Errorf("pagestore row: Fetch: %w", err)
			}
			if err := small.Unpin(f, false); err != nil {
				return err
			}
		}
		missUs = append(missUs, float64(end())/1e3/missBatch)
	}
	l.set("pagestore.miss_us", median(missUs), "us")
	return nil
}

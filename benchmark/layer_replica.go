package main

// Layer replica: ship and apply. A small archived primary is backed up,
// takes single-order inserts (one WAL segment each), and a follower
// bootstrapped from the backup catches up over a directory transport. No
// replica process runs under load; this is the apply cost per segment.

import (
	"fmt"
	"path/filepath"

	axml "repro"
)

func (l *ladder) replicaRow() error {
	e := l.e
	cfg := axml.Config{Mode: axml.RangePartial}
	src := filepath.Join(l.dir, "replica-src.db")
	archive := filepath.Join(l.dir, "replica-archive")
	base := filepath.Join(l.dir, "replica-base.bak")

	st, err := axml.OpenFileWAL(src, cfg, archive)
	if err != nil {
		return fmt.Errorf("replica row: %w", err)
	}
	root, err := axml.LoadXMLString(st, "<purchase-orders/>")
	if err == nil {
		var toks []axml.Token
		if toks, err = axml.ParseFragment(e.c.chunk(0, min(chunkOrders, len(e.ids)))); err == nil {
			_, err = st.InsertIntoLast(root, toks)
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replica row: load: %w", err)
	}
	if _, err := axml.BackupStoreFile(src, base, cfg, false, archive); err != nil {
		return fmt.Errorf("replica row: backup: %w", err)
	}

	if st, err = axml.ReopenFileWAL(src, cfg, archive); err != nil {
		return fmt.Errorf("replica row: %w", err)
	}
	segments := l.n(200)
	for k := 0; k < segments && err == nil; k++ {
		var toks []axml.Token
		if toks, err = axml.ParseFragment(genOrder(l.rng, 600000+k).xml); err == nil {
			if _, err = st.InsertIntoLast(root, toks); err == nil {
				err = st.Flush()
			}
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replica row: inserts: %w", err)
	}

	rep, err := axml.OpenReplica(filepath.Join(l.dir, "replica.db"), axml.NewDirTransport(archive, axml.DirTransportOptions{}),
		axml.ReplicaOptions{Store: cfg, Base: base})
	if err != nil {
		return fmt.Errorf("replica row: open: %w", err)
	}
	defer rep.Close()
	l.tr.nextReq()
	end := l.tr.begin("replica.catch_up")
	err = rep.CatchUp(bg)
	ns := end()
	if err != nil {
		return fmt.Errorf("replica row: catch up: %w", err)
	}
	applied := rep.Stats().SegmentsApplied
	if applied < uint64(segments) {
		l.problem("replica applied %d segments, the primary committed at least %d", applied, segments)
	}
	l.set("replica.apply_us_per_segment", ratio(float64(ns)/1e3, float64(applied)), "us")
	return nil
}

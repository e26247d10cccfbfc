package main

// Layer axml: the library user's whole operation through the root package
// — read with serialisation, queries through the plan cache, and an insert
// exactly as the server's buildInsert does it (parse, InsertAfter, Flush)
// — on the reopened store, journaled, behind the admission gate.

import (
	"fmt"

	axml "repro"
)

func (l *ladder) axmlRows() error {
	e := l.e
	for _, i := range l.reads {
		l.tr.nextReq()
		end := l.tr.begin("axml.read")
		xml, err := l.st.NodeXMLString(e.ids[i])
		end()
		if err != nil {
			return fmt.Errorf("axml.read of order %d: %w", i, err)
		}
		if xml != e.c.orders[i].xml {
			l.problem("axml.read of order %d: wrong XML", i)
		}
	}
	l.set("axml.read_us", l.tr.medianUs("axml.read"), "us")
	l.set("server.wire_tax_us", l.tr.medianUs("server.read")-l.tr.medianUs("axml.read"), "us")

	for k := 0; k < l.nq(200); k++ {
		i := l.reads[k%len(l.reads)]
		l.tr.nextReq()
		end := l.tr.begin("axml.query_point")
		ids, err := axml.QueryCtx(bg, l.st, fmt.Sprintf(qPointFmt, orderID(i)))
		end()
		if err != nil || len(ids) != 1 || ids[0] != e.ids[i] {
			return fmt.Errorf("axml.query_point of order %d: %v, %v", i, ids, err)
		}
	}
	l.set("axml.query_point_us", l.tr.medianUs("axml.query_point"), "us")
	for k := 0; k < l.nq(20); k++ {
		l.tr.nextReq()
		end := l.tr.begin("axml.query_fallback")
		ids, err := axml.QueryCtx(bg, l.st, qFallback)
		end()
		if err != nil || e.hasGlobex != (len(ids) == 1) {
			return fmt.Errorf("axml.query_fallback: %d ids, %v", len(ids), err)
		}
	}
	l.set("axml.query_fallback_us", l.tr.medianUs("axml.query_fallback"), "us")

	// Inserts last: they change the file. The journal's wrappers record
	// their spans under this row's span, and count.
	before := l.wal
	for k := 0; k < l.n(300); k++ {
		i := l.reads[k%len(l.reads)]
		xml := genOrder(l.rng, 700000+k).xml
		l.tr.nextReq()
		end := l.tr.begin("axml.insert")
		toks, err := axml.ParseFragment(xml)
		if err == nil {
			_, err = l.st.InsertAfterCtx(bg, e.ids[i], toks)
		}
		if err == nil {
			err = l.st.Flush()
		}
		end()
		if err != nil {
			return fmt.Errorf("axml.insert: %w", err)
		}
	}
	l.set("axml.insert_us", l.tr.medianUs("axml.insert"), "us")
	l.walCommitMetrics(walCounts{
		commits:    l.wal.commits - before.commits,
		syncs:      l.wal.syncs - before.syncs,
		logBytes:   l.wal.logBytes - before.logBytes,
		dirtyPages: l.wal.dirtyPages - before.dirtyPages,
	})
	return nil
}

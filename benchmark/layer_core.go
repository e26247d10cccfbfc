package main

// Layer core: the store proper — locate a node and return its tokens (no
// XML), scan the raw token sequence, split a range for a middle insert —
// on the reopened store file for reads and on a memory pager for inserts,
// so that neither serialisation nor the journal is in these rows.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xmltok"
)

// openStore reopens the server's store file in process, journaled like the
// server's, with the wal row's wrappers in the journal.
func (l *ladder) openStore() error {
	pager, err := l.openJournal(l.e.srv.db, "")
	if err != nil {
		return fmt.Errorf("reopen %s: %w", l.e.srv.db, err)
	}
	st, err := core.Reopen(core.Config{Mode: core.RangePartial}, pager, 1)
	if err != nil {
		pager.Close()
		return fmt.Errorf("reopen %s: %w", l.e.srv.db, err)
	}
	l.st = st
	return nil
}

func (l *ladder) coreRows() error {
	e := l.e
	for _, i := range l.reads {
		l.tr.nextReq()
		end := l.tr.begin("core.read")
		items, err := l.st.ReadNodeCtx(bg, e.ids[i])
		end()
		if err != nil || len(items) == 0 {
			return fmt.Errorf("core.read of order %d: %d items, %v", i, len(items), err)
		}
	}
	l.set("core.read_us", l.tr.medianUs("core.read"), "us")

	tokens := float64(l.st.Stats().Tokens)
	for k := 0; k < 5; k++ {
		l.tr.nextReq()
		end := l.tr.begin("core.scan")
		seen := 0
		err := l.st.ScanRawCtx(bg, func(core.NodeID, []byte) bool { seen++; return true })
		end()
		if err != nil || float64(seen) != tokens {
			return fmt.Errorf("core.scan saw %d of %.0f tokens: %v", seen, tokens, err)
		}
	}
	l.set("core.scan_us_per_ktoken", ratio(l.tr.medianUs("core.scan"), tokens/1000), "us")

	// The same corpus on a memory pager, loaded the way set-up loads it.
	ms, err := core.Open(core.Config{Mode: core.RangePartial})
	if err != nil {
		return err
	}
	defer ms.Close()
	root, err := ms.Append(xmltok.MustParse("<purchase-orders/>"))
	if err != nil {
		return err
	}
	for lo := 0; lo < len(e.ids); lo += chunkOrders {
		toks, err := xmltok.ParseFragmentString(e.c.chunk(lo, min(lo+chunkOrders, len(e.ids))), xmltok.ParseOptions{})
		if err != nil {
			return err
		}
		if _, err := ms.InsertIntoLast(root, toks); err != nil {
			return err
		}
	}
	for k := 0; k < l.n(300); k++ {
		i := l.reads[k%len(l.reads)]
		// Same load sequence, same ids: order i's root is e.ids[i] here too.
		if k == 0 {
			if xml, err := ms.NodeXMLString(e.ids[i]); err != nil || xml != e.c.orders[i].xml {
				return fmt.Errorf("core row: the memory store numbers nodes differently from the server (%v)", err)
			}
		}
		toks, err := xmltok.ParseFragmentString(genOrder(l.rng, 900000+k).xml, xmltok.ParseOptions{})
		if err != nil {
			return err
		}
		l.tr.nextReq()
		end := l.tr.begin("core.insert_mid")
		_, err = ms.InsertAfterCtx(bg, e.ids[i], toks)
		end()
		if err != nil {
			return fmt.Errorf("core.insert_mid: %w", err)
		}
	}
	l.set("core.insert_mid_us", l.tr.medianUs("core.insert_mid"), "us")
	return nil
}

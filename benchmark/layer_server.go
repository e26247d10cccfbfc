package main

// Rows that need the server process: the wire (server), the HTTP facade
// (http) and the fleet client (fleet). Everything here goes through the
// root package's public client against the live child, so it imports
// nothing internal.

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	axml "repro"
)

// spanned runs fn as one request with one span around it.
func (l *ladder) spanned(name string, fn func() error) error {
	l.tr.nextReq()
	end := l.tr.begin(name)
	err := fn()
	end()
	return err
}

func (l *ladder) serverRows() error {
	e := l.e
	cl := e.conns[0]

	// server.ping_us: the empty round trip — frame, wake-up, frame.
	for i := 0; i < l.n(2000); i++ {
		if err := l.spanned("server.ping", func() error { return cl.Ping(bg) }); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
	}
	l.set("server.ping_us", l.tr.medianUs("server.ping"), "us")

	// server.read: the read row's ids over the wire; the wire tax falls out
	// once the axml row has read the same ids in process.
	for _, i := range l.reads {
		err := l.spanned("server.read", func() error {
			xml, err := cl.ReadNode(bg, e.ids[i])
			if err == nil && xml != e.c.orders[i].xml {
				l.problem("server.read of order %d: wrong XML", i)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("server.read: %w", err)
		}
	}

	// http.query_tax_us: the same point queries as GET /query and as wire
	// Query, alternating so both see the same host.
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	for k := 0; k < l.n(300); k++ {
		expr := fmt.Sprintf(qPointFmt, orderID(l.reads[k%len(l.reads)]))
		err := l.spanned("server.query_point", func() error {
			rows, err := cl.Query(bg, expr)
			if err == nil && len(rows) != 1 {
				l.problem("wire %s: %d rows", expr, len(rows))
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("wire query: %w", err)
		}
		err = l.spanned("http.query_point", func() error {
			resp, err := hc.Get("http://" + e.srv.httpAddr + "/query?expr=" + url.QueryEscape(expr))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET /query: %s", resp.Status)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("http query: %w", err)
		}
	}
	l.set("http.query_tax_us", l.tr.medianUs("http.query_point")-l.tr.medianUs("server.query_point"), "us")

	// fleet.*_tax_us: DialFleet with this one endpoint against the plain
	// client, reads and appends alternating.
	fc, err := axml.DialFleet([]string{e.srv.addr}, axml.FleetOptions{Client: axml.ClientOptions{MaxFrame: 16 << 20}})
	if err != nil {
		return fmt.Errorf("DialFleet: %w", err)
	}
	defer fc.Close()
	for _, i := range l.reads[:min(len(l.reads), l.n(1000))] {
		if err := l.spanned("fleet.read", func() error { _, err := fc.ReadNode(bg, e.ids[i]); return err }); err != nil {
			return fmt.Errorf("fleet read: %w", err)
		}
		if err := l.spanned("fleet.read_base", func() error { _, err := cl.ReadNode(bg, e.ids[i]); return err }); err != nil {
			return fmt.Errorf("fleet read baseline: %w", err)
		}
	}
	l.set("fleet.read_tax_us", l.tr.medianUs("fleet.read")-l.tr.medianUs("fleet.read_base"), "us")
	for k := 0; k < l.n(150); k++ {
		for _, row := range []struct {
			name   string
			insert func(string) error
		}{
			{"fleet.write", func(x string) error { _, err := fc.Insert(bg, axml.InsertLast, e.root, x); return err }},
			{"fleet.write_base", func(x string) error { _, err := cl.Insert(bg, axml.InsertLast, e.root, x); return err }},
		} {
			o := genOrder(l.rng, e.nextSeq[0])
			e.nextSeq[0]++
			if err := l.spanned(row.name, func() error { return row.insert(o.xml) }); err != nil {
				return fmt.Errorf("%s: %w", row.name, err)
			}
			e.acked++
			e.userBytes += int64(len(o.xml))
		}
	}
	l.set("fleet.write_tax_us", l.tr.medianUs("fleet.write")-l.tr.medianUs("fleet.write_base"), "us")
	return nil
}

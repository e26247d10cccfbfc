package main

// Layers xpath, plancache and xquery: plan a query (a plan-cache miss),
// run a pushed-down point query and the tree-building fallback against the
// reopened store, and one FLWOR through the root package.

import (
	"fmt"
	"runtime"

	axml "repro"
	"repro/internal/xpath"
)

func (l *ladder) xpathRows() error {
	e := l.e
	// Expressions nobody has asked before: each is a plan-cache miss.
	for k := 0; k < l.n(300); k++ {
		expr := fmt.Sprintf(qPointFmt, orderID(800000+k))
		l.tr.nextReq()
		end := l.tr.begin("xpath.compile")
		p, err := xpath.CompileStore(l.st, expr)
		end()
		if err != nil || !p.Pushdown() {
			return fmt.Errorf("xpath.compile %s: pushdown %v, %v", expr, err == nil && p.Pushdown(), err)
		}
	}
	l.set("xpath.compile_us", l.tr.medianUs("xpath.compile"), "us")

	for k := 0; k < l.nq(200); k++ {
		i := l.reads[k%len(l.reads)]
		expr := fmt.Sprintf(qPointFmt, orderID(i))
		if _, err := xpath.CompileStore(l.st, expr); err != nil { // planned before it is timed
			return err
		}
		l.tr.nextReq()
		end := l.tr.begin("xpath.exec_point")
		ids, err := xpath.QueryIDsCtx(bg, l.st, expr)
		end()
		if err != nil || len(ids) != 1 || ids[0] != e.ids[i] {
			return fmt.Errorf("xpath.exec_point %s: %v, %v", expr, ids, err)
		}
	}
	l.set("xpath.exec_point_us", l.tr.medianUs("xpath.exec_point"), "us")

	var before, after runtime.MemStats
	n := l.nq(20)
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		l.tr.nextReq()
		end := l.tr.begin("xpath.exec_fallback")
		ids, err := xpath.QueryIDsCtx(bg, l.st, qFallback)
		end()
		if err != nil || e.hasGlobex != (len(ids) == 1) {
			return fmt.Errorf("xpath.exec_fallback: %d ids, %v", len(ids), err)
		}
	}
	runtime.ReadMemStats(&after)
	l.set("xpath.exec_fallback_us", l.tr.medianUs("xpath.exec_fallback"), "us")
	l.set("xpath.fallback_alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n)/1e6, "MB")

	i := l.reads[0]
	flwor := fmt.Sprintf(`for $o in /purchase-orders/purchase-order[@id='%s'] return <d>{$o/date}</d>`, orderID(i))
	want := "<d><date>" + e.c.orders[i].date + "</date></d>"
	for k := 0; k < l.nq(50); k++ {
		l.tr.nextReq()
		end := l.tr.begin("xquery.flwor")
		got, err := axml.XQueryStringCtx(bg, l.st, flwor)
		end()
		if err != nil {
			return fmt.Errorf("xquery.flwor: %w", err)
		}
		if got != want {
			l.problem("xquery.flwor = %q, want %q", got, want)
			break
		}
	}
	l.set("xquery.flwor_us", l.tr.medianUs("xquery.flwor"), "us")
	return nil
}

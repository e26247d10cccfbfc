// Batches over the store: Store.Update applies several updates as one unit.
// A committed batch lands whole — on a write-ahead-logged store it is one WAL
// batch, durable when Update returns. A batch whose function returns an
// error leaves no trace: the pages it dirtied never left memory, so the
// store reloads what the pager holds and every node keeps the id it had. An
// XQuery view over the committed state closes the loop.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	axml "repro"
	"repro/internal/xmltok"
)

func main() {
	store, err := axml.Open(axml.Config{Mode: axml.RangePartial})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()

	// Seed: a warehouse with two zones.
	// warehouse=1, zoneA=2 (@id=3), zoneB=4 (@id=5)
	if _, err := axml.LoadXMLString(store, `<warehouse><zone id="A"/><zone id="B"/></warehouse>`); err != nil {
		log.Fatal(err)
	}

	// 1. A committed batch: stock both zones and retire nothing.
	err = store.Update(ctx, func(b *axml.Batch) error {
		for i := 0; i < 3; i++ {
			if _, err := b.InsertIntoLast(2, xmltok.MustParseFragment(fmt.Sprintf(`<item sku="bolt-%d"/>`, i))); err != nil {
				return err
			}
			if _, err := b.InsertIntoLast(4, xmltok.MustParseFragment(fmt.Sprintf(`<item sku="nut-%d"/>`, i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	count, _ := axml.QueryValue(store, "count(//item)")
	fmt.Printf("after the committed batch: %s items\n", count)

	// 2. A batch that aborts: it adds an item and drops zone B entirely,
	// then changes its mind. Nothing survives, and zone B is node 4 again.
	before, _ := store.XMLString()
	errChangedMind := errors.New("changed my mind")
	err = store.Update(ctx, func(b *axml.Batch) error {
		if _, err := b.InsertIntoLast(2, xmltok.MustParseFragment(`<item sku="mistake"/>`)); err != nil {
			return err
		}
		if err := b.DeleteNode(4); err != nil {
			return err
		}
		if _, err := b.ReadNode(4); err == nil {
			return errors.New("zone B still readable inside the batch")
		}
		return errChangedMind
	})
	if !errors.Is(err, errChangedMind) {
		log.Fatal(err)
	}
	after, _ := store.XMLString()
	zoneB, err := store.NodeXMLString(4)
	if err != nil {
		log.Fatal(err)
	}
	bad, _ := axml.QueryValue(store, `count(//item[@sku="mistake"])`)
	fmt.Printf("after the aborted batch: unchanged=%v, %s mistakes, node 4 is %.30s...\n", before == after, bad, zoneB)

	// 3. An XQuery report over the committed state.
	report, err := axml.XQueryString(store, `
	  for $z in //zone
	  order by $z/@id
	  return <zone id="{$z/@id}" items="{count($z/item)}"/>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("report:", report)
}

package axml_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	axml "repro"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/xmltok"
)

// TestSystemEndToEnd drives the entire stack in one scenario: a generated
// auction catalog is schema-validated, stream-loaded onto a WAL-backed page
// file, queried with XPath and XQuery, updated in batches (including an
// abort), compacted, crashed, recovered, and verified.
func TestSystemEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "auction.db")

	// --- Generate and validate the document.
	gen := workload.New(20)
	doc := gen.AuctionDoc(120)
	sch := schema.MustParse(`<schema>
	  <element name="site" type="siteType"/>
	  <complexType name="siteType">
	    <element name="categories" type="catsType"/>
	    <element name="open_auctions" type="aucsType"/>
	  </complexType>
	  <complexType name="catsType">
	    <element name="category" type="catType" minOccurs="0" maxOccurs="unbounded"/>
	  </complexType>
	  <complexType name="catType">
	    <element name="name" type="xs:string"/>
	    <attribute name="id" type="xs:string" required="true"/>
	  </complexType>
	  <complexType name="aucsType">
	    <element name="open_auction" type="aucType" minOccurs="0" maxOccurs="unbounded"/>
	  </complexType>
	  <complexType name="aucType">
	    <element name="itemref" type="xs:string"/>
	    <element name="category" type="xs:string"/>
	    <element name="initial" type="xs:decimal"/>
	    <element name="bids" type="xs:int"/>
	    <attribute name="id" type="xs:string" required="true"/>
	  </complexType>
	</schema>`)
	annotated, err := sch.Validate(doc)
	if err != nil {
		t.Fatalf("schema validation: %v", err)
	}

	// --- Load onto a journaled page file.
	jp, err := wal.Open(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.Open(core.Config{
		Mode: core.RangePartial, PageSize: 4096, PoolPages: 64,
		MaxRangeTokens: 256, Pager: jp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(annotated); err != nil {
		t.Fatal(err)
	}

	// --- XPath and XQuery over the loaded data.
	n, err := axml.QueryValue(store, `count(//open_auction)`)
	if err != nil || n != "120" {
		t.Fatalf("auction count: %s, %v", n, err)
	}
	hot, err := axml.XQueryString(store, `
	  for $a in //open_auction
	  where $a/bids > 40
	  order by $a/bids descending
	  return <hot id="{$a/@id}" bids="{$a/bids}"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hot, "<hot id=") {
		t.Fatalf("hot auctions: %s", hot)
	}

	// --- Batched updates: place bids in one batch, abort another.
	ids, err := axml.Query(store, `//open_auction[bids < 5]`)
	if err != nil || len(ids) == 0 {
		t.Fatalf("low-bid auctions: %d, %v", len(ids), err)
	}
	ctx := context.Background()
	if err := store.Update(ctx, func(b *axml.Batch) error {
		for _, id := range ids[:3] {
			if _, err := b.InsertIntoLast(id, xmltok.MustParseFragment(
				`<bid_history><bid amount="99.50"/></bid_history>`)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	errDoomed := errors.New("doomed")
	if err := store.Update(ctx, func(b *axml.Batch) error {
		if err := b.DeleteNode(ids[0]); err != nil {
			return err
		}
		return errDoomed
	}); !errors.Is(err, errDoomed) {
		t.Fatalf("doomed batch: %v", err)
	}
	v, _ := axml.QueryValue(store, `count(//bid_history)`)
	if v != "3" {
		t.Fatalf("bid histories after commit+abort: %s", v)
	}

	// --- Navigation across the updated structure.
	parent, ok, err := store.Parent(ids[1])
	if err != nil || !ok {
		t.Fatalf("parent: %v %v", ok, err)
	}
	name, _ := store.NodeXMLString(parent)
	if !strings.HasPrefix(name, "<open_auctions") {
		t.Errorf("parent of auction: %.40s", name)
	}

	// --- Compact the fragmentation the updates created.
	preRanges := store.Stats().Ranges
	if _, err := store.Compact(1 << 15); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Ranges > preRanges {
		t.Error("compact increased ranges")
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// --- Durable point, more (doomed) work, crash, recover.
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := store.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	wantStats := store.Stats()
	if _, err := store.Append(xmltok.MustParse(`<lost-after-crash/>`)); err != nil {
		t.Fatal(err)
	}
	jp.CloseWithoutCommit()

	jp2, err := wal.Open(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := core.Reopen(core.Config{
		Mode: core.FullIndex, PageSize: 4096, PoolPages: 64,
	}, jp2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got, err := recovered.XMLString()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("recovered content differs from the flushed state")
	}
	st := recovered.Stats()
	if st.Nodes != wantStats.Nodes || st.Tokens != wantStats.Tokens {
		t.Fatalf("recovered stats %d/%d, want %d/%d",
			st.Nodes, st.Tokens, wantStats.Nodes, wantStats.Tokens)
	}
	// PSVI annotations survived load, updates, compaction and recovery.
	typed := 0
	recovered.Scan(func(it core.Item) bool {
		if it.Tok.Type != 0 {
			typed++
		}
		return true
	})
	if typed == 0 {
		t.Error("PSVI annotations lost somewhere in the pipeline")
	}
	// The recovered store (now under a full index) answers the same query.
	n2, err := axml.QueryValue(recovered, `count(//open_auction)`)
	if err != nil || n2 != "120" {
		t.Fatalf("recovered auction count: %s, %v", n2, err)
	}
	if err := recovered.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemScale loads a larger document through the streaming path and
// checks access-path behavior at size (skipped with -short).
func TestSystemScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	gen := workload.New(5)
	var sb strings.Builder
	if err := xmltok.Serialize(&sb, gen.PurchaseOrdersDoc(20000)); err != nil {
		t.Fatal(err)
	}
	src := sb.String()

	s, err := axml.Open(axml.Config{Mode: axml.RangePartial, MaxRangeTokens: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := axml.LoadXMLStream(s, strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Nodes < 500000 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	// Hot reads warm up.
	hot := []core.NodeID{7, 70007, 300007, core.NodeID(st.Nodes) - 7}
	for round := 0; round < 3; round++ {
		for _, id := range hot {
			if err := s.ScanNode(id, func(core.Item) bool { return true }); err != nil {
				t.Fatalf("read %d: %v", id, err)
			}
		}
	}
	after := s.Stats()
	if after.PartialHits == 0 {
		t.Error("no partial hits at scale")
	}
	// Bulk updates at the tail stay cheap (end-position caching).
	root := core.NodeID(1)
	scanned := after.TokensScanned
	for i := 0; i < 50; i++ {
		if _, err := s.InsertIntoLast(root, gen.PurchaseOrder(10_000_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	perOp := (s.Stats().TokensScanned - scanned) / 50
	if perOp > 50000 {
		t.Errorf("insertIntoLast at scale scans %d tokens/op", perOp)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(st.Ranges) == "0" {
		t.Fatal("no ranges")
	}
}

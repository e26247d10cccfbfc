package main

// The benchmark's own corpus generator: the same <purchase-order> shape as
// internal/workload.PurchaseOrder, but produced as XML text from the
// standard library alone, so the end-to-end path depends on nothing that
// ROADMAP item 6 may move. Because the generator knows every order it
// made, it also computes the answers the correctness gate compares with.

import (
	"fmt"
	"math/rand"
	"strings"
)

var (
	itemNames     = []string{"widget", "sprocket", "gear", "flange", "bracket", "valve", "gasket", "bearing", "coupling", "fitting"}
	customerNames = []string{"Acme Corp", "Globex", "Initech", "Umbrella", "Stark Industries", "Wayne Enterprises", "Tyrell", "Cyberdyne"}
	statusNames   = []string{"open", "shipped", "billed"}
)

// order is one generated purchase order: the fields the queries select on
// plus its serialisation, which is byte for byte what the server returns
// for the order's root node.
type order struct {
	status   string
	customer string
	date     string
	xml      string
}

func orderID(seq int) string { return fmt.Sprintf("PO-%06d", seq) }

func genOrder(r *rand.Rand, seq int) order {
	o := order{
		status:   statusNames[r.Intn(len(statusNames))],
		customer: customerNames[r.Intn(len(customerNames))],
		date:     fmt.Sprintf("2005-%02d-%02d", 1+r.Intn(12), 1+r.Intn(28)),
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<purchase-order id="%s" status="%s"><customer>%s</customer><date>%s</date>`,
		orderID(seq), o.status, o.customer, o.date)
	for i, lines := 0, 1+r.Intn(4); i < lines; i++ {
		fmt.Fprintf(&b, `<line no="%d"><item>%s</item><qty>%d</qty><price>%d.%02d</price></line>`,
			i+1, itemNames[r.Intn(len(itemNames))], 1+r.Intn(100), 1+r.Intn(500), r.Intn(100))
	}
	b.WriteString("</purchase-order>")
	o.xml = b.String()
	return o
}

// corpus is the base document of one run: n orders with sequence numbers
// 0..n-1 in document order.
type corpus struct {
	orders []order
}

func genCorpus(r *rand.Rand, n int) *corpus {
	c := &corpus{orders: make([]order, n)}
	for i := range c.orders {
		c.orders[i] = genOrder(r, i)
	}
	return c
}

// chunk returns orders [lo,hi) concatenated: one InsertLast fragment, which
// the store keeps as one coarse range.
func (c *corpus) chunk(lo, hi int) string {
	var b strings.Builder
	for _, o := range c.orders[lo:hi] {
		b.WriteString(o.xml)
	}
	return b.String()
}

// countStatus is the answer to count(//purchase-order[@status=s]).
func (c *corpus) countStatus(s string) int {
	n := 0
	for _, o := range c.orders {
		if o.status == s {
			n++
		}
	}
	return n
}

// firstDateOf is the answer to //purchase-order[customer=name][1]/date: the
// <date> element of the first order, in document order, of that customer.
func (c *corpus) firstDateOf(name string) (string, bool) {
	for _, o := range c.orders {
		if o.customer == name {
			return "<date>" + o.date + "</date>", true
		}
	}
	return "", false
}

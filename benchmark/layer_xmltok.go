package main

// Layer xmltok: XML text to tokens (every insert pays it once) and tokens
// to XML text (every ReadNode pays it once).

import (
	"fmt"

	"repro/internal/token"
	"repro/internal/xmltok"
)

const xmltokBatch = 16 // orders per span

func (l *ladder) xmltokRows() error {
	var parseUs, serUs []float64
	for k := 0; k < l.n(200); k++ {
		l.tr.nextReq()
		seqs := make([][]token.Token, xmltokBatch)
		end := l.tr.begin("xmltok.parse")
		for j := range seqs {
			o := l.e.c.orders[l.reads[(k*xmltokBatch+j)%len(l.reads)]]
			toks, err := xmltok.ParseFragmentString(o.xml, xmltok.ParseOptions{})
			if err != nil {
				return fmt.Errorf("xmltok row: %w", err)
			}
			seqs[j] = toks
		}
		parseUs = append(parseUs, float64(end())/1e3/xmltokBatch)

		end = l.tr.begin("xmltok.serialize")
		for j, s := range seqs {
			xml, err := xmltok.ToString(s)
			if err != nil {
				return fmt.Errorf("xmltok row: %w", err)
			}
			if want := l.e.c.orders[l.reads[(k*xmltokBatch+j)%len(l.reads)]].xml; xml != want {
				l.problem("xmltok round trip changed an order")
			}
		}
		serUs = append(serUs, float64(end())/1e3/xmltokBatch)
	}
	l.set("xmltok.parse_us_per_order", median(parseUs), "us")
	l.set("xmltok.serialize_us_per_order", median(serUs), "us")
	return nil
}

package main

// Layer token: the binary token codec, the floor under every read (decode)
// and insert (encode).

import (
	"fmt"

	"repro/internal/token"
	"repro/internal/xmltok"
)

// tokenBatch is how many orders one token span covers: an order encodes in
// about a microsecond, too little for a span of its own.
const tokenBatch = 64

func (l *ladder) tokenRows() error {
	var encNs, decNs []float64
	var buf []byte
	for k := 0; k < l.n(200); k++ {
		var seqs [][]token.Token
		tokens := 0
		for j := 0; j < tokenBatch; j++ {
			o := l.e.c.orders[l.reads[(k*tokenBatch+j)%len(l.reads)]]
			toks, err := xmltok.ParseFragmentString(o.xml, xmltok.ParseOptions{})
			if err != nil {
				return fmt.Errorf("token row: parse: %w", err)
			}
			seqs = append(seqs, toks)
			tokens += len(toks)
		}
		encoded := make([][]byte, len(seqs))
		l.tr.nextReq()
		end := l.tr.begin("token.encode")
		for j, s := range seqs {
			buf = token.AppendAll(buf[:0], s)
			encoded[j] = append([]byte(nil), buf...)
		}
		encNs = append(encNs, float64(end())/float64(tokens))

		end = l.tr.begin("token.decode")
		for j, b := range encoded {
			back, err := token.DecodeAll(b)
			if err != nil || len(back) != len(seqs[j]) {
				return fmt.Errorf("token row: decode gave %d tokens of %d: %v", len(back), len(seqs[j]), err)
			}
		}
		decNs = append(decNs, float64(end())/float64(tokens))
	}
	l.set("token.encode_ns_per_token", median(encNs), "ns")
	l.set("token.decode_ns_per_token", median(decNs), "ns")
	return nil
}

package twig

import (
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// FuzzTwigJoin drives the two-sweep oracle and the served Evaluator with
// a document with words and a tree pattern with required and optional
// ftcontains predicates, both decoded from the fuzz input, and requires
// the candidates distinguished accepts — and, for a limit k drawn from
// the input as well, First(k) to be their first k. The same byte's top
// five bits pick a subset of the distinguished stream, and a join
// restricted to it must return the candidates in that subset, skipping
// or not (restricted). The decoders accept every byte string, so the
// fuzzer explores structure instead of fighting a parser.
func FuzzTwigJoin(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x80, 0x91}, []byte{0x00, 0x31, 0x42}, uint8(1))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x07, 0x70}, []byte{0x14, 0x25}, uint8(2))
	f.Add([]byte{0x00, 0x00, 0x01, 0x11, 0x11, 0x01}, []byte{0x01}, uint8(1))
	f.Add([]byte{0x20, 0x61, 0x22, 0x13, 0xa3, 0x11, 0x62}, []byte{0x45, 0x4e, 0x87, 0xc1}, uint8(0))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, docBytes, qBytes []byte, k uint8) {
		ix, q := fuzzDoc(docBytes), fuzzQuery(qBytes)
		first(t, ix, q, int(k%8))
		restricted(t, ix, q, k>>3)
	})
}

// fuzzDoc decodes an arbitrary byte string into a small document: each
// byte's low nibble picks a tag, the high nibble decides between opening
// a child (bit 5: with a word, bit 6 picking it) and closing the current
// element.
func fuzzDoc(data []byte) *index.Index {
	tags := []string{"a", "b", "c", "d"}
	b := xmldoc.NewBuilder()
	b.Start("r")
	depth := 1
	for _, x := range data {
		if len(data) > 256 {
			break // keep fuzz cases small
		}
		if x&0x10 != 0 && depth > 1 {
			b.End()
			depth--
			continue
		}
		if depth < 8 {
			b.Start(tags[int(x&0x03)])
			depth++
			if x&0x20 != 0 {
				b.Text(randomWords[int(x>>6)&1])
			}
		}
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return index.Build(b.MustDocument(), text.Pipeline{})
}

// fuzzQuery decodes bytes into a tree pattern: per byte, two tag bits,
// one axis bit, three parent-selection bits and two keyword bits (none,
// a required "foo" or "bar", an optional "foo"); the last byte picks the
// distinguished node, and its top bit puts a required "foo" on the root.
func fuzzQuery(data []byte) *tpq.Query {
	tags := []string{"a", "b", "c", "d", "*", "r"}
	q := tpq.NewQuery(tags[len(data)%len(tags)], tpq.Descendant)
	for i, x := range data {
		if i >= 6 {
			break
		}
		axis := tpq.Child
		if x&0x04 != 0 {
			axis = tpq.Descendant
		}
		n := q.AddChild(int(x>>3&0x07)%len(q.Nodes), tags[int(x&0x03)], axis)
		if kw := x >> 6; kw != 0 {
			q.Nodes[n].FT = []tpq.FTPred{{Phrase: randomWords[(kw-1)&1], Optional: kw == 3, Weight: 1}}
		}
	}
	if len(data) > 0 {
		last := data[len(data)-1]
		q.Dist = int(last) % len(q.Nodes)
		if last&0x80 != 0 {
			q.Nodes[0].FT = []tpq.FTPred{{Phrase: "foo", Weight: 1}}
		}
	}
	return q
}

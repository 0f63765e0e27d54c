package twig

import (
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// FuzzTwigJoin drives the two-sweep oracle and the served Evaluator with
// a document and a tree pattern both decoded from the fuzz input, and
// requires identical distinguished-node candidates. The decoders accept
// every byte string, so the fuzzer explores structure instead of
// fighting a parser.
func FuzzTwigJoin(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x80, 0x91}, []byte{0x00, 0x31, 0x42})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x07, 0x70}, []byte{0x14, 0x25})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, docBytes, qBytes []byte) {
		distinguished(t, fuzzDoc(docBytes), fuzzQuery(qBytes))
	})
}

// fuzzDoc decodes an arbitrary byte string into a small document: each
// byte's low nibble picks a tag, the high nibble decides between opening
// a child and closing the current element.
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
		}
	}
	for ; depth > 0; depth-- {
		b.End()
	}
	return index.Build(b.MustDocument(), text.Pipeline{})
}

// fuzzQuery decodes bytes into a tree pattern: per byte, two tag bits,
// one axis bit, and parent-selection bits; the last byte picks the
// distinguished node.
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
		q.AddChild(int(x>>3)%len(q.Nodes), tags[int(x&0x03)], axis)
	}
	if len(data) > 0 {
		q.Dist = int(data[len(data)-1]) % len(q.Nodes)
	}
	return q
}

// Content fingerprinting. A fingerprint is a stable hash of everything
// index-side that can change a search response: every node of the
// document, the text pipeline configuration (stemming/stopwords
// change tokenization and hence matching), and the active scorer. Both
// the per-document engine (engine.Fingerprint) and the mutable corpus
// registry (corpus.Entry) derive their cache-key identities from it, so
// the hashing lives here — below both.
package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/xmldoc"
)

// ContentFingerprint hashes the index's document together with its
// pipeline and scorer configuration. Two indexes over byte-identical
// documents with the same configuration share a fingerprint, so a
// result cache survives an index rebuild or a process restart.
//
// The hash covers the document's columns directly rather than a serialized XML
// string: same content sensitivity, but no multi-megabyte allocation.
// Every field is length- or kind-prefixed so distinct documents cannot
// collide by concatenation. Build feeds the hash from its own walk, so
// this is a load of the cached value unless the index was restored by
// Load or its scorer replaced since.
func ContentFingerprint(ix *Index) string {
	if fp := ix.fp.Load(); fp != nil {
		return *fp
	}
	f := newFingerprinter(ix)
	for id := 0; id < ix.doc.Len(); id++ {
		f.node(xmldoc.NodeID(id))
	}
	return f.finish()
}

// fingerprinter streams nodes, in document order, into ix's content
// hash through one reused buffer.
type fingerprinter struct {
	ix  *Index
	h   hash.Hash
	buf []byte
}

func newFingerprinter(ix *Index) *fingerprinter {
	return &fingerprinter{ix: ix, h: sha256.New(), buf: fmt.Appendf(make([]byte, 0, 32<<10),
		"pipe:stem=%t,stop=%t;scorer=%s;doc:", ix.pipe.Stem, ix.pipe.DropStopwords, ix.ScorerName())}
}

func (f *fingerprinter) str(s string) {
	f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(len(s)))
	f.buf = append(f.buf, s...)
}

func (f *fingerprinter) node(id xmldoc.NodeID) {
	d := f.ix.doc
	f.buf = append(f.buf, byte(d.Kind(id)))
	f.str(d.Tag(id))
	f.str(d.Text(id))
	f.buf = append(f.buf, byte(d.NumAttrs(id)))
	for i := range d.NumAttrs(id) {
		a := d.AttrAt(id, i)
		f.str(a.Name)
		f.str(a.Value)
	}
	if len(f.buf) >= 16<<10 { // long runs for SHA-256, a buffer that stays in cache
		f.h.Write(f.buf)
		f.buf = f.buf[:0]
	}
}

// finish caches the fingerprint on the index and returns it.
func (f *fingerprinter) finish() string {
	f.h.Write(f.buf)
	fp := hex.EncodeToString(f.h.Sum(nil)[:16])
	f.ix.fp.Store(&fp)
	return fp
}

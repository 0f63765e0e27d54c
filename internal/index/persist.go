package index

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/text"
	"repro/internal/xmldoc"
)

// persistedIndex is the on-disk form of an Index (caches excluded; they
// rebuild lazily).
type persistedIndex struct {
	Version   int
	Pipe      text.Pipeline
	Tags      map[string][]xmldoc.NodeID
	Positions map[string][]int32
	SeqNode   []xmldoc.NodeID
	NumTokens int
}

const persistVersion = 1

// Save writes the index in a binary snapshot format (gob). The document
// is not included — pair it with xmldoc's Save, or use the engine-level
// snapshot which bundles both.
func (ix *Index) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(persistedIndex{
		Version:   persistVersion,
		Pipe:      ix.pipe,
		Tags:      ix.tags.lists(),
		Positions: ix.terms.lists(),
		SeqNode:   ix.seqNode,
		NumTokens: len(ix.seqNode),
	})
}

// lists is the table as the snapshot format holds it: a map of lists
// (sub-slices of the arena, not copies).
func (t *table[T]) lists() map[string][]T {
	m := make(map[string][]T, len(t.id))
	for name := range t.id {
		m[name] = t.list(name)
	}
	return m
}

// tableOf lays a decoded map of lists out as a table.
func tableOf[T ~int32](lists map[string][]T) table[T] {
	t := table[T]{id: make(map[string]uint32, len(lists))}
	var next []int32
	for name, l := range lists {
		id := t.intern(name, &next)
		next[id] = int32(len(l))
	}
	t.layout(next)
	for name, l := range lists {
		copy(t.arena[next[t.id[name]]:], l)
	}
	return t
}

// Load reads an index snapshot written by Save and re-attaches it to its
// document. It cross-checks the snapshot against the document (token
// positions must reference text nodes) so mismatched pairs fail loudly
// instead of corrupting probes.
func Load(r io.Reader, doc *xmldoc.Document) (*Index, error) {
	var p persistedIndex
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if p.Version != persistVersion {
		return nil, fmt.Errorf("index: load: unsupported snapshot version %d", p.Version)
	}
	if len(p.SeqNode) != p.NumTokens {
		return nil, fmt.Errorf("index: load: token count mismatch")
	}
	for _, id := range p.SeqNode {
		if id < 0 || int(id) >= doc.Len() || doc.Kind(id) != xmldoc.Text {
			return nil, fmt.Errorf("index: load: snapshot does not match document (token in node %d)", id)
		}
	}
	for tag, ids := range p.Tags {
		for _, id := range ids {
			if id < 0 || int(id) >= doc.Len() || doc.Tag(id) != tag {
				return nil, fmt.Errorf("index: load: snapshot does not match document (tag %q at node %d)", tag, id)
			}
		}
	}
	ix := &Index{doc: doc, pipe: p.Pipe, tags: tableOf(p.Tags), terms: tableOf(p.Positions), seqNode: p.SeqNode}
	for id := xmldoc.NodeID(0); int(id) < doc.Len(); id++ {
		if doc.Kind(id) == xmldoc.Element {
			ix.allElems = append(ix.allElems, id)
		}
	}
	ix.resetCaches()
	return ix, nil
}

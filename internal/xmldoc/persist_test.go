package xmldoc

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// validate checks the columns' own consistency: the v1 records they
// derive must rebuild into the same tree, as Load requires of a
// snapshot.
func (d *Document) validate() error {
	_, err := fromRecords(d.records())
	return err
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := mustParse(t, carXML)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.XMLString() != d2.XMLString() {
		t.Fatalf("round trip changed the document")
	}
	if d.textLen() != d2.textLen() {
		t.Errorf("text length changed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, input := range [][]byte{nil, []byte("x"), []byte("garbage input here")} {
		if _, err := Load(bytes.NewReader(input)); err == nil {
			t.Errorf("Load(%q) should fail", input)
		}
	}
}

// TestPropertySaveLoadRandomTrees round-trips random documents.
func TestPropertySaveLoadRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for iter := 0; iter < 200; iter++ {
		d := randomTree(r, 2+r.Intn(60))
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := Load(&buf)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if d.Len() != d2.Len() {
			t.Fatalf("node count changed")
		}
		for i := NodeID(0); int(i) < d.Len(); i++ {
			if d.Kind(i) != d2.Kind(i) || d.Tag(i) != d2.Tag(i) || d.Text(i) != d2.Text(i) ||
				d.Parent(i) != d2.Parent(i) || d.Pos().Post[i] != d2.Pos().Post[i] {
				t.Fatalf("node %d differs after round trip", i)
			}
		}
	}
}

// TestPropertyValidateCatchesCorruption: flipping structural fields of a
// snapshot's records must be caught by Load (content-only corruption can
// go unnoticed; structure must not).
func TestPropertyValidateCatchesCorruption(t *testing.T) {
	d := mustParse(t, carXML)
	corruptions := []func([]Node){
		func(n []Node) { n[3].Parent = 99 },
		func(n []Node) { n[2].Start = 0 },
		func(n []Node) { n[1].End = int32(len(n) + 5) },
		func(n []Node) { n[4].Level += 3 },
		func(n []Node) { n[0].Parent = 1 },
		func(n []Node) { n[2].Next = n[2].First },
		func(n []Node) { n[0].Kind = Text },
	}
	for i, corrupt := range corruptions {
		recs := d.records()
		corrupt(recs)
		if _, err := fromRecords(recs); err == nil {
			t.Errorf("corruption %d not caught", i)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persistedDocument{Version: persistVersion, Nodes: d.records(), TextLen: d.textLen() + 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("a wrong text length not caught")
	}
	// The pristine document validates.
	if err := d.validate(); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

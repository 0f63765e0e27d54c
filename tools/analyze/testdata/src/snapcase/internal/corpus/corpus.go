// Fixture stand-in for the real internal/corpus: the snapshotonce
// analyzer matches the Corpus type by package-path suffix, so this
// fake exercises it without importing the repository.
package corpus

type Snapshot struct{ docs []string }

func (s *Snapshot) Len() int           { return len(s.docs) }
func (s *Snapshot) Generation() uint64 { return 0 }

type Corpus struct{ snap *Snapshot }

func (c *Corpus) Snapshot() *Snapshot { return c.snap }
func (c *Corpus) Len() int            { return 0 }

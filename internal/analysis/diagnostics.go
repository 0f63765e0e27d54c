// Diagnostic model for the profile/query static-analysis suite.
//
// Section 5's analyses gate execution: an ambiguous ordering-rule set or
// a cyclic conflict graph makes Search fail. The vet suite turns the
// same machinery (plus new checks) into structured diagnostics — a
// stable rule ID, a severity, the affected rules, and a concrete
// witness (the conflict cycle's rule sequence, the alternating cycle's
// variable walk of Lemma 5.1, or the contradictory predicate pair) — so
// tooling can explain *why* a profile is broken instead of just
// refusing it.
//
// Determinism contract: Vet output is byte-stable across runs. Cycle
// witnesses are canonicalized to their lexicographically smallest
// rotation and the diagnostic list is sorted by (severity, ID, first
// affected rule index, message); repeated analysis of the same inputs
// yields deeply equal results.
package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/profile"
)

// Severity grades a diagnostic. Error means engine.Search rejects the
// (profile, query) pair; Warn flags rules that are dead, redundant or
// surprising but do not block execution; Info is advisory.
type Severity uint8

const (
	SevError Severity = iota
	SevWarn
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	}
	return "info"
}

// MarshalJSON emits the severity as its string name, so wire payloads
// read "error"/"warn"/"info" rather than opaque numbers.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the string names MarshalJSON produces, so
// clients can round-trip /lint payloads through this package's types.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = SevError
	case `"warn"`:
		*s = SevWarn
	case `"info"`:
		*s = SevInfo
	default:
		return fmt.Errorf("analysis: unknown severity %s", b)
	}
	return nil
}

// Diagnostic check IDs. The set is compile-time enumerable (metrics
// label values come from it) and stable across releases: IDs are never
// renumbered, only appended.
const (
	// DiagDuplicateName: two rules share one identifier. ParseProfile
	// rejects this at load time; ParseDiagnostics turns its error into
	// the finding.
	DiagDuplicateName = "P001"
	// DiagDuplicateRule: two rules of the same kind have identical
	// bodies under different names (the later one double-applies).
	DiagDuplicateRule = "P002"
	// DiagSRConflictCycle: the SR conflict graph is cyclic for the
	// analyzed query and no priorities resolve it (Section 5.1).
	DiagSRConflictCycle = "SR001"
	// DiagSRUnsatCond: an SR condition carries an unsatisfiable
	// constraint conjunction — no document node can trigger it.
	DiagSRUnsatCond = "SR002"
	// DiagSRDeadAction: an SR's action cannot be carried out even on
	// its own trigger query (e.g. a conclusion names an unbound
	// variable).
	DiagSRDeadAction = "SR003"
	// DiagSRShadowed: an SR is pre-empted on its own trigger query —
	// the rules applied before it (by priority or topological order)
	// disable it.
	DiagSRShadowed = "SR004"
	// DiagUnsatRewrite: SR rewriting produced a flock member with an
	// unsatisfiable constraint conjunction (e.g. price < 100 ∧
	// price > 200).
	DiagUnsatRewrite = "SR005"
	// DiagSRProbeCycle: a conflict cycle is reachable from some rule's
	// own trigger query (profile-only heuristic; the query-scoped
	// SR001 is authoritative).
	DiagSRProbeCycle = "SR006"
	// DiagVORAmbiguous: the VOR set is ambiguous after priority
	// resolution (Lemma 5.1) — Search rejects the profile.
	DiagVORAmbiguous = "VOR001"
	// DiagVORAmbiguousResolved: the unprioritized VOR set has an
	// alternating cycle, but the assigned priorities break it.
	DiagVORAmbiguousResolved = "VOR002"
	// DiagVORRedundant: a VOR is subsumed by another rule with the
	// same ordering core and weaker local conditions.
	DiagVORRedundant = "VOR003"
	// DiagVORDead: a VOR side's local constraint closure is
	// unsatisfiable — the rule can never order any pair.
	DiagVORDead = "VOR004"
	// DiagVORNoMatch: no query in the flock can produce answers with
	// the VOR's tag.
	DiagVORNoMatch = "VOR005"
	// DiagKORNoMatch: no query in the flock can produce answers with
	// the KOR's tag, so its keywords can never contribute.
	DiagKORNoMatch = "KOR001"
	// DiagKORDupPhrase: a KOR lists the same phrase twice, double
	// counting its score contribution.
	DiagKORDupPhrase = "KOR002"
)

// DiagnosticIDs returns every check ID the suite can emit, in stable
// order. Metrics layers preregister one counter per ID from this list,
// which is what keeps the per-diagnostic-class label set compile-time
// enumerable.
func DiagnosticIDs() []string {
	return []string{
		DiagDuplicateName, DiagDuplicateRule,
		DiagSRConflictCycle, DiagSRUnsatCond, DiagSRDeadAction,
		DiagSRShadowed, DiagUnsatRewrite, DiagSRProbeCycle,
		DiagVORAmbiguous, DiagVORAmbiguousResolved, DiagVORRedundant,
		DiagVORDead, DiagVORNoMatch,
		DiagKORNoMatch, DiagKORDupPhrase,
	}
}

// ParseDiagnostics reports a profile.ParseProfile failure that is a vet
// *finding* rather than malformed input: a duplicate rule identifier
// comes back as its P001 diagnostic, any other parse error as nil. It
// matches the parser's typed error, never the message — parse errors
// quote user input, so a profile can spell "[P001]" itself.
func ParseDiagnostics(err error) []Diagnostic {
	var dup *profile.DuplicateNameError
	if !errors.As(err, &dup) {
		return nil
	}
	return []Diagnostic{{ID: DiagDuplicateName, Severity: SevError, Message: err.Error()}}
}

// RuleRef points at one affected rule: its kind ("sr", "vor", "kor"),
// its index in the profile's declaration order for that kind, and its
// name.
type RuleRef struct {
	Kind  string `json:"kind"`
	Index int    `json:"index"`
	Name  string `json:"name"`
}

func (r RuleRef) String() string { return fmt.Sprintf("%s[%d] %s", r.Kind, r.Index, r.Name) }

// Witness kinds.
const (
	// WitnessConflictCycle: Path is the cycle's rule-name sequence
	// (canonical rotation).
	WitnessConflictCycle = "conflict-cycle"
	// WitnessAlternatingCycle: Path is the Lemma 5.1 variable walk
	// x1 ≺ y1 = x2 ≺ y2 = … (canonical rotation; closing back to the
	// first variable).
	WitnessAlternatingCycle = "alternating-cycle"
	// WitnessContradiction: Path is the contradictory predicate pair.
	WitnessContradiction = "contradiction"
	// WitnessShadowedBy: Path is the rule names applied before the
	// shadowed rule's failed turn.
	WitnessShadowedBy = "shadowed-by"
	// WitnessSubsumedBy: Path is the subsuming rule's name.
	WitnessSubsumedBy = "subsumed-by"
	// WitnessTagMismatch: Path is the rule's tag followed by the
	// answer tags the flock can actually produce.
	WitnessTagMismatch = "tag-mismatch"
)

// Witness is the concrete evidence behind a diagnostic.
type Witness struct {
	Kind string   `json:"kind"`
	Path []string `json:"path"`
}

func (w *Witness) String() string {
	if w == nil {
		return ""
	}
	sep := " "
	switch w.Kind {
	case WitnessConflictCycle:
		sep = " -> "
	case WitnessAlternatingCycle:
		sep = " ~ "
	case WitnessContradiction:
		sep = " ∧ "
	case WitnessShadowedBy, WitnessSubsumedBy, WitnessTagMismatch:
		sep = ", "
	}
	return w.Kind + ": " + strings.Join(w.Path, sep)
}

// Diagnostic is one finding of the vet suite.
type Diagnostic struct {
	ID       string    `json:"id"`
	Severity Severity  `json:"severity"`
	Message  string    `json:"message"`
	Rules    []RuleRef `json:"rules,omitempty"`
	Witness  *Witness  `json:"witness,omitempty"`
}

func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s: %s", strings.ToUpper(d.Severity.String()), d.ID, d.Message)
	if d.Witness != nil {
		fmt.Fprintf(&sb, " (%s)", d.Witness)
	}
	return sb.String()
}

// firstRuleIndex is the sort tiebreaker: the smallest affected rule
// index, or a large sentinel for profile-level findings.
func (d Diagnostic) firstRuleIndex() int {
	idx := int(^uint(0) >> 1)
	for _, r := range d.Rules {
		if r.Index < idx {
			idx = r.Index
		}
	}
	return idx
}

// SortDiagnostics orders diagnostics canonically: severity (errors
// first), then check ID, then first affected rule index, then message.
// Vet applies it before returning; callers merging lists from several
// passes re-apply it to restore the contract.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		ai, bi := a.firstRuleIndex(), b.firstRuleIndex()
		if ai != bi {
			return ai < bi
		}
		return a.Message < b.Message
	})
}

// ErrorCount returns how many diagnostics are error-severity.
func ErrorCount(ds []Diagnostic) int {
	n := 0
	for _, d := range ds {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Report is the vet verdict for a (profile[, query]) pair, the payload
// of POST /lint and `pimento vet -json`. It is byte-stable for
// identical inputs: diagnostics are sorted canonically, witnesses carry
// canonical cycle rotations, and the per-check counts marshal with
// sorted keys.
type Report struct {
	// Clean is true when no error-severity diagnostic was found; such a
	// profile is accepted by Search (Section 5's gates pass).
	Clean bool `json:"clean"`
	// Errors is the number of error-severity diagnostics.
	Errors int `json:"errors"`
	// Diagnostics is the sorted findings list, [] when there are none.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Counts maps check ID -> occurrences in this report.
	Counts map[string]int `json:"counts,omitempty"`
}

// NewReport builds the Report for a sorted diagnostics list.
func NewReport(ds []Diagnostic) *Report {
	r := &Report{Errors: ErrorCount(ds), Diagnostics: ds}
	r.Clean = r.Errors == 0
	if len(ds) == 0 {
		r.Diagnostics = []Diagnostic{}
		return r
	}
	r.Counts = make(map[string]int)
	for _, d := range ds {
		r.Counts[d.ID]++
	}
	return r
}

// canonicalRotation rotates a cycle to its lexicographically smallest
// rotation, making witnesses byte-stable regardless of where DFS
// happened to enter the cycle. stride groups elements that rotate
// together (2 for alternating-cycle variable walks whose elements come
// in x/y pairs, 1 for plain rule cycles). The slice is rotated in
// place-free fashion: a new slice is returned.
func canonicalRotation(cycle []string, stride int) []string {
	if stride < 1 {
		stride = 1
	}
	n := len(cycle)
	if n == 0 || n%stride != 0 {
		return cycle
	}
	groups := n / stride
	best := 0
	for g := 1; g < groups; g++ {
		if rotationLess(cycle, g*stride, best*stride) {
			best = g
		}
	}
	if best == 0 {
		return append([]string(nil), cycle...)
	}
	out := make([]string, 0, n)
	out = append(out, cycle[best*stride:]...)
	out = append(out, cycle[:best*stride]...)
	return out
}

// rotationLess compares the rotations of cycle starting at offsets a
// and b lexicographically.
func rotationLess(cycle []string, a, b int) bool {
	n := len(cycle)
	for i := 0; i < n; i++ {
		va, vb := cycle[(a+i)%n], cycle[(b+i)%n]
		if va != vb {
			return va < vb
		}
	}
	return false
}

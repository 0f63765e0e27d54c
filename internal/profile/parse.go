package profile

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/tpq"
)

// ParseProfile parses the profile DSL. One declaration per line; '#'
// starts a comment. The syntax mirrors the paper's Fig. 2:
//
//	order colors: red > blue > green
//	sr p1 priority 1: if pc(car, description) & ftcontains(description, "low mileage") then remove ftcontains(car, "good condition")
//	sr p2: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
//	sr p3: if pc(car, description) & ftcontains(description, "good condition") then replace ftcontains(description, "low mileage") with ftcontains(description, "mileage")
//	vor w1 priority 2: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
//	vor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
//	vor w3: x.tag = car & y.tag = car & x.make = y.make & x.hp > y.hp => x < y
//	vor w6: x.tag = car & y.tag = car & colors(x.color, y.color) => x < y
//	kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
//	rank K,V,S
//
// In conclusions, "x < y" reads "x is preferred to y" (the paper's
// x ≺ y).
func ParseProfile(src string) (*Profile, error) {
	p := NewProfile()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseDecl(p, line); err != nil {
			return nil, fmt.Errorf("profile: line %d: %w", lineNo+1, err)
		}
	}
	return p, nil
}

// MustParseProfile is ParseProfile for known-good literals.
func MustParseProfile(src string) *Profile {
	p, err := ParseProfile(src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseDecl(p *Profile, line string) error {
	word, rest := cutWord(line)
	switch word {
	case "order":
		return parseOrderDecl(p, rest)
	case "sr":
		return parseSRDecl(p, rest)
	case "vor":
		return parseVORDecl(p, rest)
	case "kor":
		return parseKORDecl(p, rest)
	case "rank":
		return parseRankDecl(p, rest)
	}
	return fmt.Errorf("unknown declaration %q", word)
}

func cutWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	i := 0
	for i < len(s) && !unicode.IsSpace(rune(s[i])) && s[i] != ':' {
		i++
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// DuplicateNameError is the parse failure for a rule identifier already
// taken by another sr, vor or kor. It is a type, not a marker in the
// message, because parse errors quote user input: callers that report
// the collision as vet finding P001 match it with errors.As.
type DuplicateNameError struct {
	Kind, Name string // the offending declaration
	OtherKind  string // the kind of rule that already holds Name
}

func (e *DuplicateNameError) Error() string {
	if e.Kind == e.OtherKind {
		return fmt.Sprintf("%s %s: duplicate rule identifier [P001]", e.Kind, e.Name)
	}
	return fmt.Sprintf("%s %s: rule identifier already used by a %s [P001]", e.Kind, e.Name, e.OtherKind)
}

// checkRuleName rejects a rule identifier already taken by any sr, vor
// or kor: rules share one namespace (diagnostics and witnesses refer to
// them by name), so a collision would make every report ambiguous.
func checkRuleName(p *Profile, kind, name string) error {
	clash := func(otherKind string) error {
		return &DuplicateNameError{Kind: kind, Name: name, OtherKind: otherKind}
	}
	for _, sr := range p.SRs {
		if sr.Name == name {
			return clash("sr")
		}
	}
	for _, v := range p.VORs {
		if v.Name == name {
			return clash("vor")
		}
	}
	for _, k := range p.KORs {
		if k.Name == name {
			return clash("kor")
		}
	}
	return nil
}

// parseHeader consumes "NAME [priority N] [weight W] :" and returns the
// remainder after the colon.
func parseHeader(s string) (name string, priority int, weight float64, rest string, err error) {
	name, s = cutWord(s)
	if name == "" {
		return "", 0, 0, "", fmt.Errorf("missing rule name")
	}
	for {
		if strings.HasPrefix(s, ":") {
			return name, priority, weight, strings.TrimSpace(s[1:]), nil
		}
		var kw string
		kw, s = cutWord(s)
		switch kw {
		case "priority":
			var v string
			v, s = cutWord(s)
			n, perr := strconv.Atoi(v)
			if perr != nil {
				return "", 0, 0, "", fmt.Errorf("bad priority %q", v)
			}
			priority = n
		case "weight":
			var v string
			v, s = cutWord(s)
			f, perr := strconv.ParseFloat(v, 64)
			if perr != nil {
				return "", 0, 0, "", fmt.Errorf("bad weight %q", v)
			}
			weight = f
		case "":
			return "", 0, 0, "", fmt.Errorf("missing ':'")
		default:
			return "", 0, 0, "", fmt.Errorf("unexpected %q before ':'", kw)
		}
	}
}

func parseOrderDecl(p *Profile, s string) error {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return fmt.Errorf("order: missing ':'")
	}
	name := strings.TrimSpace(s[:i])
	if name == "" {
		return fmt.Errorf("order: missing name")
	}
	po := p.Orders[name]
	if po == nil {
		po = NewPartialOrder(name)
		p.Orders[name] = po
	}
	for _, chain := range strings.Split(s[i+1:], ",") {
		vals := strings.Split(chain, ">")
		if len(vals) < 2 {
			return fmt.Errorf("order %s: chain %q needs at least 'a > b'", name, strings.TrimSpace(chain))
		}
		for j := 0; j+1 < len(vals); j++ {
			better := unquote(strings.TrimSpace(vals[j]))
			worse := unquote(strings.TrimSpace(vals[j+1]))
			if better == "" || worse == "" {
				return fmt.Errorf("order %s: empty value in chain", name)
			}
			if err := po.Add(better, worse); err != nil {
				return err
			}
		}
	}
	return nil
}

func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '"' && s[len(s)-1] == '"' || s[0] == '\'' && s[len(s)-1] == '\'') {
		return s[1 : len(s)-1]
	}
	return s
}

func parseRankDecl(p *Profile, s string) error {
	norm := strings.ToUpper(strings.ReplaceAll(strings.ReplaceAll(s, " ", ""), ",", ""))
	switch norm {
	case "KVS":
		p.Rank = KVS
	case "VKS":
		p.Rank = VKS
	case "BLEND", "K+SV", "K+S":
		p.Rank = Blend
	default:
		return fmt.Errorf("rank: want K,V,S or V,K,S or blend; got %q", s)
	}
	return nil
}

func parseSRDecl(p *Profile, s string) error {
	name, priority, weight, rest, err := parseHeader(s)
	if err != nil {
		return fmt.Errorf("sr: %w", err)
	}
	if err := checkRuleName(p, "sr", name); err != nil {
		return err
	}
	var kw string
	kw, rest = cutWord(rest)
	if kw != "if" {
		return fmt.Errorf("sr %s: expected 'if'", name)
	}
	thenIdx := findKeyword(rest, "then")
	if thenIdx < 0 {
		return fmt.Errorf("sr %s: missing 'then'", name)
	}
	condSrc := rest[:thenIdx]
	actionSrc := strings.TrimSpace(rest[thenIdx+len("then"):])

	cond, err := parseAtoms(condSrc)
	if err != nil {
		return fmt.Errorf("sr %s: condition: %w", name, err)
	}
	sr := &SR{Name: name, Cond: cond, Priority: priority, Weight: weight}

	actWord, actRest := cutWord(actionSrc)
	switch actWord {
	case "add":
		sr.Kind = SRAdd
		sr.Concl, err = parseAtoms(actRest)
	case "remove", "delete":
		sr.Kind = SRDelete
		sr.Concl, err = parseAtoms(actRest)
	case "relax":
		sr.Kind = SRRelax
		sr.Concl, err = parseAtoms(actRest)
		for _, a := range sr.Concl {
			if err == nil && a.Kind != AtomPC {
				err = fmt.Errorf("relax only applies to pc(...) atoms, got %s", a)
			}
		}
	case "replace":
		sr.Kind = SRReplace
		withIdx := findKeyword(actRest, "with")
		if withIdx < 0 {
			return fmt.Errorf("sr %s: replace needs 'with'", name)
		}
		sr.ReplWhat, err = parseAtoms(actRest[:withIdx])
		if err == nil {
			sr.ReplWith, err = parseAtoms(actRest[withIdx+len("with"):])
		}
	default:
		return fmt.Errorf("sr %s: unknown action %q", name, actWord)
	}
	if err != nil {
		return fmt.Errorf("sr %s: %w", name, err)
	}
	if _, err := sr.CondQuery(); err != nil {
		return err
	}
	p.SRs = append(p.SRs, sr)
	return nil
}

// findKeyword locates a keyword at word boundaries outside quotes.
func findKeyword(s, kw string) int {
	inQuote := byte(0)
	for i := 0; i+len(kw) <= len(s); i++ {
		c := s[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		if c == '"' || c == '\'' {
			inQuote = c
			continue
		}
		if !strings.HasPrefix(s[i:], kw) {
			continue
		}
		before := i == 0 || isWordBoundary(s[i-1])
		afterIdx := i + len(kw)
		after := afterIdx >= len(s) || isWordBoundary(s[afterIdx])
		if before && after {
			return i
		}
	}
	return -1
}

func isWordBoundary(c byte) bool {
	return !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9')
}

// parseAtoms parses "atom & atom & ...".
func parseAtoms(s string) ([]Atom, error) {
	var out []Atom
	for _, part := range splitTop(s, '&') {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty conjunct")
		}
		a, err := parseAtom(part)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no atoms")
	}
	return out, nil
}

// splitTop splits on sep outside quotes and parentheses.
func splitTop(s string, sep byte) []string {
	var parts []string
	depth := 0
	inQuote := byte(0)
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inQuote = c
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseAtom(s string) (Atom, error) {
	if m, args, ok := matchCall(s, "pc"); ok {
		_ = m
		if len(args) != 2 {
			return Atom{}, fmt.Errorf("pc wants 2 args: %q", s)
		}
		return Atom{Kind: AtomPC, X: args[0], Y: args[1]}, nil
	}
	if _, args, ok := matchCall(s, "ad"); ok {
		if len(args) != 2 {
			return Atom{}, fmt.Errorf("ad wants 2 args: %q", s)
		}
		return Atom{Kind: AtomAD, X: args[0], Y: args[1]}, nil
	}
	if _, args, ok := matchCall(s, "ftcontains"); ok {
		if len(args) != 2 {
			return Atom{}, fmt.Errorf("ftcontains wants 2 args: %q", s)
		}
		phrase := unquote(args[1])
		if strings.TrimSpace(phrase) == "" {
			return Atom{}, fmt.Errorf("ftcontains with an empty phrase: %q", s)
		}
		return Atom{Kind: AtomFT, X: args[0], Phrase: phrase}, nil
	}
	// Constraint atom: VAR[.attr] relop literal.
	lhs, op, rhs, err := splitComparison(s)
	if err != nil {
		return Atom{}, err
	}
	x, attr := lhs, ""
	if i := strings.IndexByte(lhs, '.'); i >= 0 {
		x, attr = lhs[:i], lhs[i+1:]
	}
	val, err := parseLiteral(rhs)
	if err != nil {
		return Atom{}, err
	}
	return Atom{Kind: AtomCmp, X: x, Attr: attr, Op: op, Val: val}, nil
}

// matchCall parses "name ( a, b )" and returns the trimmed args.
func matchCall(s, name string) (string, []string, bool) {
	t := strings.TrimSpace(s)
	if !strings.HasPrefix(t, name) {
		return "", nil, false
	}
	rest := strings.TrimSpace(t[len(name):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", nil, false
	}
	inner := rest[1 : len(rest)-1]
	parts := splitTop(inner, ',')
	args := make([]string, len(parts))
	for i, p := range parts {
		args[i] = strings.TrimSpace(p)
	}
	return name, args, true
}

var compOps = []struct {
	sym string
	op  tpq.RelOp
}{
	// Longest first.
	{"<=", tpq.LE}, {">=", tpq.GE}, {"!=", tpq.NE}, {"<>", tpq.NE},
	{"=", tpq.EQ}, {"<", tpq.LT}, {">", tpq.GT},
}

func splitComparison(s string) (lhs string, op tpq.RelOp, rhs string, err error) {
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		if c == '"' || c == '\'' {
			inQuote = c
			continue
		}
		for _, co := range compOps {
			if strings.HasPrefix(s[i:], co.sym) {
				return strings.TrimSpace(s[:i]), co.op,
					strings.TrimSpace(s[i+len(co.sym):]), nil
			}
		}
	}
	return "", 0, "", fmt.Errorf("no comparison operator in %q", s)
}

func parseLiteral(s string) (tpq.Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return tpq.Value{}, fmt.Errorf("missing literal")
	}
	if s[0] == '"' || s[0] == '\'' {
		return tpq.StrValue(unquote(s)), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return tpq.NumValue(f), nil
	}
	return tpq.StrValue(s), nil // bare word, e.g. color = red
}

// parseVORDecl parses a value-based ordering rule. The general shape is
// vatom & ... => A < B where A, B are the rule's two variables and A is
// the preferred side.
func parseVORDecl(p *Profile, s string) error {
	name, priority, _, rest, err := parseHeader(s)
	if err != nil {
		return fmt.Errorf("vor: %w", err)
	}
	if err := checkRuleName(p, "vor", name); err != nil {
		return err
	}
	body, xVar, yVar, err := splitConclusion(rest)
	if err != nil {
		return fmt.Errorf("vor %s: %w", name, err)
	}
	v := &VOR{Name: name, Priority: priority}
	var tagX, tagY string
	for _, part := range splitTop(body, '&') {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("vor %s: empty conjunct", name)
		}
		// prefRel atom: ordername(x.attr, y.attr)
		if i := strings.IndexByte(part, '('); i > 0 && !strings.ContainsAny(part[:i], "=<>!") {
			oname := strings.TrimSpace(part[:i])
			if po, ok := p.Orders[oname]; ok {
				_, args, okc := matchCall(part, oname)
				if !okc || len(args) != 2 {
					return fmt.Errorf("vor %s: bad preference atom %q", name, part)
				}
				vx, ax, err1 := splitVarAttr(args[0])
				vy, ay, err2 := splitVarAttr(args[1])
				if err1 != nil || err2 != nil || vx != xVar || vy != yVar || ax != ay {
					return fmt.Errorf("vor %s: preference atom must be %s(%s.a, %s.a)", name, oname, xVar, yVar)
				}
				v.Form = FormPrefRel
				v.Attr = ax
				v.Order = po
				continue
			}
			return fmt.Errorf("vor %s: unknown preference relation in %q", name, part)
		}
		lhs, op, rhs, err := splitComparison(part)
		if err != nil {
			return fmt.Errorf("vor %s: %w", name, err)
		}
		lv, lattr, err := splitVarAttr(lhs)
		if err != nil {
			return fmt.Errorf("vor %s: %w", name, err)
		}
		// Right side: variable.attr or literal?
		if rv, rattr, rerr := splitVarAttr(rhs); rerr == nil && (rv == xVar || rv == yVar) && rattr != "tag" {
			// Cross atom.
			if lattr != rattr {
				return fmt.Errorf("vor %s: cross atom must compare the same attribute: %q", name, part)
			}
			if lv == rv {
				return fmt.Errorf("vor %s: cross atom uses one variable twice: %q", name, part)
			}
			switch op {
			case tpq.EQ:
				v.CommonEq = append(v.CommonEq, lattr)
			case tpq.LT, tpq.GT:
				if v.Form == FormPrefRel || v.Attr != "" && v.Form == FormAttrCmp {
					return fmt.Errorf("vor %s: multiple ordering atoms", name)
				}
				v.Form = FormAttrCmp
				v.Attr = lattr
				v.Op = op
				if lv == yVar {
					// y.a < x.a  ==  x.a > y.a
					if op == tpq.LT {
						v.Op = tpq.GT
					} else {
						v.Op = tpq.LT
					}
				}
			default:
				return fmt.Errorf("vor %s: relOp must be <, > or = in cross atoms (Section 3.2)", name)
			}
			continue
		}
		// Local atom.
		val, verr := parseLiteral(rhs)
		if verr != nil {
			return fmt.Errorf("vor %s: %w", name, verr)
		}
		if lattr == "tag" {
			if op != tpq.EQ || val.IsNum {
				return fmt.Errorf("vor %s: tag condition must be var.tag = name", name)
			}
			if lv == xVar {
				tagX = val.Str
			} else if lv == yVar {
				tagY = val.Str
			} else {
				return fmt.Errorf("vor %s: unknown variable %q", name, lv)
			}
			continue
		}
		ac := AttrConstraint{Attr: lattr, Op: op, Val: val}
		switch lv {
		case xVar:
			v.LocalX = append(v.LocalX, ac)
		case yVar:
			v.LocalY = append(v.LocalY, ac)
		default:
			return fmt.Errorf("vor %s: unknown variable %q", name, lv)
		}
	}
	if tagX == "" || tagX != tagY {
		return fmt.Errorf("vor %s: both variables need the same tag condition (common condition C)", name)
	}
	v.Tag = tagX
	// Detect form (1): matching local pair x.a = c / y.a != c.
	if v.Form == FormEqConst && v.Attr == "" {
		if !liftEqConst(v) {
			return fmt.Errorf("vor %s: no ordering atom (need x.a=c & y.a!=c, x.a relOp y.a, or prefRel)", name)
		}
	}
	if err := v.Validate(); err != nil {
		return err
	}
	p.VORs = append(p.VORs, v)
	return nil
}

// liftEqConst searches LocalX/LocalY for the form-(1) pair x.a = c and
// y.a != c, removes them from the locals and installs them as the form.
func liftEqConst(v *VOR) bool {
	for i, cx := range v.LocalX {
		if cx.Op != tpq.EQ {
			continue
		}
		for j, cy := range v.LocalY {
			if cy.Op == tpq.NE && cy.Attr == cx.Attr && cy.Val.Equal(cx.Val) {
				v.Form = FormEqConst
				v.Attr = cx.Attr
				v.Const = cx.Val
				v.LocalX = append(v.LocalX[:i], v.LocalX[i+1:]...)
				v.LocalY = append(v.LocalY[:j], v.LocalY[j+1:]...)
				return true
			}
		}
	}
	return false
}

func splitVarAttr(s string) (v, attr string, err error) {
	s = strings.TrimSpace(s)
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("expected var.attr, got %q", s)
	}
	return s[:i], s[i+1:], nil
}

// splitConclusion splits "body => x < y" and returns body and the two
// variable names (preferred first).
func splitConclusion(s string) (body, xVar, yVar string, err error) {
	i := strings.Index(s, "=>")
	if i < 0 {
		return "", "", "", fmt.Errorf("missing conclusion '=> x < y'")
	}
	body = strings.TrimSpace(s[:i])
	concl := strings.TrimSpace(s[i+2:])
	j := strings.IndexByte(concl, '<')
	if j < 0 {
		return "", "", "", fmt.Errorf("conclusion must be 'x < y', got %q", concl)
	}
	xVar = strings.TrimSpace(concl[:j])
	yVar = strings.TrimSpace(concl[j+1:])
	if xVar == "" || yVar == "" || xVar == yVar {
		return "", "", "", fmt.Errorf("conclusion must name two distinct variables, got %q", concl)
	}
	return body, xVar, yVar, nil
}

func parseKORDecl(p *Profile, s string) error {
	name, priority, weight, rest, err := parseHeader(s)
	if err != nil {
		return fmt.Errorf("kor: %w", err)
	}
	if err := checkRuleName(p, "kor", name); err != nil {
		return err
	}
	body, xVar, yVar, err := splitConclusion(rest)
	if err != nil {
		return fmt.Errorf("kor %s: %w", name, err)
	}
	k := &KOR{Name: name, Priority: priority, Weight: weight}
	var tagX, tagY string
	for _, part := range splitTop(body, '&') {
		part = strings.TrimSpace(part)
		if _, args, ok := matchCall(part, "ftcontains"); ok {
			if len(args) != 2 || args[0] != xVar {
				return fmt.Errorf("kor %s: ftcontains must test the preferred variable %s", name, xVar)
			}
			k.Phrases = append(k.Phrases, unquote(args[1]))
			continue
		}
		lhs, op, rhs, err := splitComparison(part)
		if err != nil {
			return fmt.Errorf("kor %s: %w", name, err)
		}
		lv, lattr, err := splitVarAttr(lhs)
		if err != nil || lattr != "tag" || op != tpq.EQ {
			return fmt.Errorf("kor %s: only tag conditions and ftcontains atoms are allowed, got %q", name, part)
		}
		tag := unquote(strings.TrimSpace(rhs))
		switch lv {
		case xVar:
			tagX = tag
		case yVar:
			tagY = tag
		default:
			return fmt.Errorf("kor %s: unknown variable %q", name, lv)
		}
	}
	if tagX == "" || tagX != tagY {
		return fmt.Errorf("kor %s: both variables need the same tag condition", name)
	}
	if len(k.Phrases) == 0 {
		return fmt.Errorf("kor %s: needs at least one ftcontains atom", name)
	}
	k.Tag = tagX
	p.KORs = append(p.KORs, k)
	return nil
}

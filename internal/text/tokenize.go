// Package text implements the full-text pipeline for PIMENTO: a Unicode-
// aware tokenizer, lower-casing, an English stopword list, the Porter
// stemming algorithm, and phrase normalization. Section 7.1 of the paper
// reports that stemming and case folding were considered when matching
// query keywords against the INEX collection; both are implemented here
// and can be toggled per pipeline.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single token occurrence inside a piece of text.
type Token struct {
	Term  string // normalized term (lower-cased, optionally stemmed)
	Raw   string // the raw surface form
	Pos   int    // token ordinal within the tokenized text, starting at 0
	Start int    // byte offset of the raw token in the input
}

// Pipeline configures text normalization. The zero value lower-cases only.
type Pipeline struct {
	// Stem applies Porter stemming to each token.
	Stem bool
	// DropStopwords removes common English stopwords.
	DropStopwords bool
}

// DefaultPipeline is the configuration used by the engine: case folding
// and stemming, with stopwords kept (keyword predicates in the paper such
// as "best bid" contain function words that matter for phrase matching).
var DefaultPipeline = Pipeline{Stem: true}

// EachToken calls yield with every token of s — a maximal run of letters
// and digits; everything else separates tokens — as a sub-string of s,
// with its byte offset. It allocates nothing and normalizes nothing:
// that is Normalize's job, so a caller that meets the same surface form
// many times (index.Build) normalizes it once.
func EachToken(s string, yield func(raw string, start int)) {
	i := 0
	for i < len(s) {
		r, size := rune(s[i]), 1
		if r >= 0x80 {
			r, size = decodeRune(s[i:])
		}
		if !isTokenRune(r) {
			i += size
			continue
		}
		start := i
		for i < len(s) {
			r, size = rune(s[i]), 1
			if r >= 0x80 {
				r, size = decodeRune(s[i:])
			}
			if !isTokenRune(r) {
				break
			}
			i += size
		}
		yield(s[start:i], start)
	}
}

// Normalize maps one raw token to its term under this pipeline:
// lower-cased, dropped (ok false) when DropStopwords is set and it is a
// stopword, stemmed when Stem is set.
func (p Pipeline) Normalize(raw string) (term string, ok bool) {
	term = strings.ToLower(raw)
	if p.DropStopwords && stopwords[term] {
		return "", false
	}
	if p.Stem {
		term = Stem(term)
	}
	return term, true
}

// Tokenize splits s into normalized tokens.
func (p Pipeline) Tokenize(s string) []Token {
	// Counting first costs one more scan and saves growing a slice of
	// 48-byte Tokens by append.
	n := 0
	EachToken(s, func(string, int) { n++ })
	out := make([]Token, 0, n)
	EachToken(s, func(raw string, start int) {
		if term, ok := p.Normalize(raw); ok {
			out = append(out, Token{Term: term, Raw: raw, Pos: len(out), Start: start})
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Terms returns just the normalized term strings of s.
func (p Pipeline) Terms(s string) []string {
	terms := []string{}
	EachToken(s, func(raw string, _ int) {
		if term, ok := p.Normalize(raw); ok {
			terms = append(terms, term)
		}
	})
	return terms
}

// NormalizePhrase normalizes a query phrase ("Good Condition") into its
// term sequence under this pipeline, for direct comparison with indexed
// tokens.
func (p Pipeline) NormalizePhrase(phrase string) []string {
	return p.Terms(phrase)
}

func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// decodeRune decodes the first rune of s (ASCII is fast-pathed by the
// callers; this handles the multi-byte tail).
func decodeRune(s string) (rune, int) {
	return utf8.DecodeRuneInString(s)
}

// stopwords is a compact English stopword list (SMART subset).
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "if": true, "in": true,
	"into": true, "is": true, "it": true, "no": true, "not": true, "of": true,
	"on": true, "or": true, "such": true, "that": true, "the": true,
	"their": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "to": true, "was": true, "will": true, "with": true,
}

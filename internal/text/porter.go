package text

// Stem applies the Porter stemming algorithm (M.F. Porter, "An algorithm
// for suffix stripping", Program 1980) to a lower-cased English word and
// returns its stem. Words of length <= 2 are returned unchanged, per the
// original algorithm.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if c := word[i]; c < 'a' || c > 'z' {
			// Non-ASCII-lowercase input (digits, accents): leave as is.
			return word
		}
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if string(w) == word {
		return word // its own stem: no second copy
	}
	return string(w)
}

// isCons reports whether w[i] is a consonant in Porter's sense.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	default:
		return true
	}
}

// measure computes m, the number of VC sequences in w[:len].
func measure(w []byte) int {
	n := len(w)
	m := 0
	i := 0
	// skip initial consonants
	for i < n && isCons(w, i) {
		i++
	}
	for i < n {
		// in vowel run
		for i < n && !isCons(w, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && isCons(w, i) {
			i++
		}
	}
	return m
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a double consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// cvc reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func cvc(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceIf replaces suffix s with r when the stem measure condition holds.
func replaceIf(w []byte, s, r string, cond func(stem []byte) bool) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if cond != nil && !cond(stem) {
		return w, true // suffix matched but condition failed: stop trying
	}
	out := make([]byte, 0, len(stem)+len(r))
	out = append(out, stem...)
	out = append(out, r...)
	return out, true
}

func mGreater(k int) func([]byte) bool {
	return func(stem []byte) bool { return measure(stem) > k }
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleCons(stem):
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem) == 1 && cvc(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		out := make([]byte, len(w))
		copy(out, w)
		out[len(out)-1] = 'i'
		return out
	}
	return w
}

var step2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, rule := range step2Rules {
		if out, matched := replaceIf(w, rule.s, rule.r, mGreater(0)); matched {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, rule := range step3Rules {
		if out, matched := replaceIf(w, rule.s, rule.r, mGreater(0)); matched {
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if s == "ion" {
			continue // handled below
		}
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	// (m>1 and (*S or *T)) ION
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if measure(stem) > 1 && len(stem) > 0 &&
			(stem[len(stem)-1] == 's' || stem[len(stem)-1] == 't') {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if hasSuffix(w, "e") {
		stem := w[:len(w)-1]
		m := measure(stem)
		if m > 1 || (m == 1 && !cvc(stem)) {
			return stem
		}
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}

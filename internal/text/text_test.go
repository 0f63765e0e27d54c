package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	p := Pipeline{}
	toks := p.Tokenize("Good condition, low-mileage! NYC 2001")
	got := make([]string, len(toks))
	for i, tk := range toks {
		got[i] = tk.Term
	}
	want := []string{"good", "condition", "low", "mileage", "nyc", "2001"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i, tk := range toks {
		if tk.Pos != i {
			t.Errorf("token %d has Pos %d", i, tk.Pos)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	p := Pipeline{}
	s := "  hello,  world "
	toks := p.Tokenize(s)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if s[toks[0].Start:toks[0].Start+len(toks[0].Raw)] != "hello" {
		t.Errorf("offset 0 wrong: %+v", toks[0])
	}
	if s[toks[1].Start:toks[1].Start+len(toks[1].Raw)] != "world" {
		t.Errorf("offset 1 wrong: %+v", toks[1])
	}
}

func TestTokenizeEmpty(t *testing.T) {
	p := Pipeline{}
	if toks := p.Tokenize(""); len(toks) != 0 {
		t.Errorf("empty input: %v", toks)
	}
	if toks := p.Tokenize("... !!! ---"); len(toks) != 0 {
		t.Errorf("punctuation only: %v", toks)
	}
}

func TestStopwords(t *testing.T) {
	p := Pipeline{DropStopwords: true}
	got := p.Terms("the car is in a good condition")
	want := []string{"car", "good", "condition"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
	if !stopwords["the"] || stopwords["car"] {
		t.Errorf("stopword list misclassifies")
	}
}

func TestPorterStemKnownPairs(t *testing.T) {
	// Pairs from Porter's published vocabulary.
	pairs := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formaliti":    "formal",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		"mining":       "mine",
		"association":  "associ",
	}
	for in, want := range pairs {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonAlpha(t *testing.T) {
	for _, w := range []string{"a", "be", "", "x9", "2001", "café"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestContainsPhrase(t *testing.T) {
	p := DefaultPipeline
	txt := "It is in good condition as I was the only driver. I used it in NYC."
	cases := []struct {
		phrase string
		want   bool
	}{
		{"good condition", true},
		{"Good Condition", true}, // case folding
		{"condition good", false},
		{"only driver", true},
		{"nyc", true},
		{"low mileage", false},
		{"", false},
	}
	for _, c := range cases {
		if got := p.ContainsPhrase(txt, c.phrase); got != c.want {
			t.Errorf("ContainsPhrase(%q) = %v, want %v", c.phrase, got, c.want)
		}
	}
}

func TestContainsPhraseStemming(t *testing.T) {
	p := Pipeline{Stem: true}
	if !p.ContainsPhrase("mining associations in databases", "association mining") == false {
		// "association mining" is not contiguous in that order; sanity only.
		t.Log("order matters for phrases")
	}
	if !p.ContainsPhrase("we studied data mining extensively", "data mine") {
		t.Errorf("stemming should match mining ~ mine")
	}
	np := Pipeline{Stem: false}
	if np.ContainsPhrase("we studied data mining extensively", "data mine") {
		t.Errorf("without stemming, mine != mining")
	}
}

// TestPropertyStemIdempotentOnOutput: stemming twice equals stemming once
// for typical English word shapes. (True Porter is not idempotent on all
// strings; we check on realistic inputs used by the system.)
func TestPropertyTokenizeStable(t *testing.T) {
	f := func(s string) bool {
		p := Pipeline{}
		a := p.Terms(s)
		b := p.Terms(strings.Join(a, " "))
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPhraseSelfContainment: any window of a text's tokens is a
// phrase that ContainsPhrase finds in that text.
func TestPropertyPhraseSelfContainment(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	words := []string{"car", "red", "mileage", "power", "best", "bid",
		"good", "condition", "seller", "auction", "price"}
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(12)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = words[r.Intn(len(words))]
		}
		txt := strings.Join(toks, " ")
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)
		phrase := strings.Join(toks[lo:hi], " ")
		if !DefaultPipeline.ContainsPhrase(txt, phrase) {
			t.Fatalf("text %q must contain its own window %q", txt, phrase)
		}
	}
}

// oracleTokenize is Tokenize as it stood before EachToken: one loop
// that scans, lower-cases, filters, stems and appends per token.
func oracleTokenize(p Pipeline, s string) []Token {
	var out []Token
	pos := 0
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
		raw := s[start:i]
		term := strings.ToLower(raw)
		if p.DropStopwords && stopwords[term] {
			continue
		}
		if p.Stem {
			term = Stem(term)
		}
		out = append(out, Token{Term: term, Raw: raw, Pos: pos, Start: start})
		pos++
	}
	return out
}

// TestEachTokenMatchesTokenize: the callback tokenizer cuts the same raw
// tokens at the same offsets as the old loop, Normalize maps each to the
// same term (or drops it), and Tokenize / Terms rebuilt on the pair
// return what the loop returned — on ASCII, on multi-byte letters and
// digits, on invalid UTF-8, and on strings that yield nothing.
func TestEachTokenMatchesTokenize(t *testing.T) {
	inputs := []string{
		"", "   ", "--- ... !!!",
		"Good condition, low-mileage! NYC 2001",
		"the of and to be or not to be", // stopwords only
		"Relational CONDITIONING authorization's ponies",
		"Ünïcödé naïve ÉCOLE école straße ǅ",
		"日本語 テキスト ١٢٣ ４２",
		"bad\xffutf8 \xc3( tail\xe2\x82 end\xf0\x9f",
		"\xff\xfe", "a", "x1y2 007 4x4",
	}
	const alphabet = "aZ 9-é\xff\xe2\x82the "
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(40))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for _, p := range []Pipeline{{}, {Stem: true}, {DropStopwords: true}, {Stem: true, DropStopwords: true}} {
		for _, s := range inputs {
			want := oracleTokenize(p, s)
			if got := p.Tokenize(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v.Tokenize(%q) = %v, oracle %v", p, s, got, want)
			}
			terms := p.Terms(s)
			if len(terms) != len(want) || terms == nil {
				t.Fatalf("%+v.Terms(%q) = %v, oracle %v", p, s, terms, want)
			}
			for i, tok := range want {
				if terms[i] != tok.Term {
					t.Fatalf("%+v.Terms(%q)[%d] = %q, oracle %q", p, s, i, terms[i], tok.Term)
				}
			}
			// Every raw token, kept or dropped, in order: the zero
			// pipeline's oracle tokens are exactly the raw cuts.
			raws := oracleTokenize(Pipeline{}, s)
			n, k := 0, 0
			EachToken(s, func(raw string, start int) {
				if n >= len(raws) || raw != raws[n].Raw || start != raws[n].Start || s[start:start+len(raw)] != raw {
					t.Fatalf("EachToken(%q) token %d = %q@%d, oracle %v", s, n, raw, start, raws)
				}
				n++
				if term, ok := p.Normalize(raw); ok {
					if k >= len(want) || term != want[k].Term {
						t.Fatalf("%+v.Normalize(%q) = %q, oracle %v", p, raw, term, want)
					}
					k++
				}
			})
			if n != len(raws) || k != len(want) {
				t.Fatalf("EachToken(%q) yielded %d tokens (%d kept), oracle %d (%d kept)", s, n, k, len(raws), len(want))
			}
		}
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 50)
	p := DefaultPipeline
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Tokenize(s)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "conditioning", "authorization",
		"mileage", "personalization", "effectiveness"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

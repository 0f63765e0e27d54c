// Package xmark is the XMark substrate: a deterministic generator of
// auction-site documents in the style of the XMark benchmark (Schmidt et
// al.), which the paper's Section 7.2 uses for its performance study.
// The original generator and its 101 KB–10 MB document instances are not
// redistributable here, so documents are synthesized with the same
// shape: a site with people (the Fig. 5 query's targets, carrying
// gender, education, city, country, age and business elements whose
// values the paper's KORs and VOR test), items, and auctions.
//
// All generation is seeded and reproducible bit for bit.
package xmark

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/xmldoc"
)

// Paper document sizes of Fig. 6, in bytes.
var PaperSizes = []int{
	101 * 1024,
	212 * 1024,
	468 * 1024,
	571 * 1024,
	823 * 1024,
	1 * 1024 * 1024,
	5*1024*1024 + 700*1024, // 5.7MB
	10 * 1024 * 1024,
}

// SizeLabel renders a byte size the way the paper's Fig. 6 axis does.
func SizeLabel(bytes int) string {
	switch {
	case bytes >= 1024*1024:
		mb := float64(bytes) / (1024 * 1024)
		if mb == float64(int(mb)) {
			return fmt.Sprintf("%dM", int(mb))
		}
		return fmt.Sprintf("%.1fM", mb)
	default:
		return fmt.Sprintf("%dK", bytes/1024)
	}
}

// ParseSize parses a human-friendly byte size: a plain number, or one
// with a K or M suffix (1024-based, either case), e.g. "512K", "5.7M".
func ParseSize(s string) (int, error) {
	num := strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(num, "K"):
		mult, num = 1024, num[:len(num)-1]
	case strings.HasSuffix(num, "M"):
		mult, num = 1024*1024, num[:len(num)-1]
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return int(f * float64(mult)), nil
}

var (
	cities = []string{
		"Phoenix", "NYC", "Boston", "Seattle", "Austin", "Denver",
		"Chicago", "Portland", "Atlanta", "Dallas",
	}
	countries = []string{
		"United States", "United States", "United States", // XMark skews US
		"Germany", "France", "Japan", "Brazil", "Canada",
	}
	educations = []string{"High School", "College", "Graduate School", "Other"}
	genders    = []string{"male", "female"}
	firstNames = []string{
		"Jaak", "Mehrdad", "Sinisa", "Huei", "Jose", "Amanda", "Wera",
		"Dafydd", "Yuri", "Mitsuyuki", "Carmen", "Reinout", "Olga", "Tuomo",
	}
	lastNames = []string{
		"Merz", "Dashti", "Srdjevic", "Chou", "Morgado", "Leuski", "Krone",
		"Unno", "Braband", "Takano", "Gera", "Vrbsky", "Poppe", "Eastman",
	}
	words = []string{
		"honour", "fortune", "mistress", "gentle", "wherefore", "valiant",
		"daughter", "crown", "exeunt", "prithee", "sovereign", "quarrel",
		"banish", "noble", "herald", "sword", "castle", "treason", "march",
		"kingdom", "knave", "beseech", "villain", "feast", "duke", "army",
	}
	itemNames = []string{
		"vintage clock", "oak table", "silver spoon", "rare stamp",
		"porcelain vase", "old map", "brass lamp", "first edition",
	}
)

// Config tunes the generator; the zero value plus a seed is the paper's
// setup.
type Config struct {
	Seed int64
	// PersonBusinessYes is the fraction of persons whose business element
	// is "Yes" (the Fig. 5 query's selectivity); default 0.5.
	PersonBusinessYes float64
}

func (c Config) yesRate() float64 {
	if c.PersonBusinessYes == 0 {
		return 0.5
	}
	return c.PersonBusinessYes
}

// gen tracks approximate serialized size while building.
type gen struct {
	r     *rand.Rand
	b     *xmldoc.Builder
	bytes int
	cfg   Config
}

func (g *gen) start(tag string, attrs ...xmldoc.Attr) {
	g.bytes += 2*len(tag) + 5
	for _, a := range attrs {
		g.bytes += len(a.Name) + len(a.Value) + 4
	}
	g.b.Start(tag, attrs...)
}

func (g *gen) end() { g.b.End() }

func (g *gen) elem(tag, text string) {
	g.bytes += 2*len(tag) + 5 + len(text)
	g.b.Elem(tag, text)
}

func (g *gen) sentence(n int) string {
	out := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, words[g.r.Intn(len(words))]...)
	}
	return string(out)
}

// GenerateSized builds a document of approximately targetBytes serialized
// size (within a few percent).
func GenerateSized(cfg Config, targetBytes int) *xmldoc.Document {
	g := &gen{
		r:   rand.New(rand.NewSource(cfg.Seed)),
		b:   xmldoc.NewBuilderCap(targetBytes / 24),
		cfg: cfg,
	}
	g.start("site")

	// People take roughly 60% of the budget; items and auctions the rest.
	peopleBudget := targetBytes * 6 / 10
	g.start("people")
	id := 0
	for g.bytes < peopleBudget {
		g.person(id)
		id++
	}
	g.end()

	g.start("regions")
	g.start("namerica")
	itemID := 0
	itemBudget := targetBytes * 85 / 100
	for g.bytes < itemBudget {
		g.item(itemID)
		itemID++
	}
	g.end()
	g.end()

	g.start("open_auctions")
	aid := 0
	auctionBudget := targetBytes * 97 / 100
	for g.bytes < auctionBudget {
		g.auction(aid, itemID)
		aid++
	}
	g.end()

	g.start("closed_auctions")
	for g.bytes < targetBytes {
		g.closedAuction(aid, itemID, id)
		aid++
	}
	g.end()

	g.categories(8)

	g.end() // site
	return g.b.MustDocument()
}

// Generate builds a document with exactly nPersons persons (plus
// proportional items/auctions), for tests that count rather than size.
func Generate(cfg Config, nPersons int) *xmldoc.Document {
	g := &gen{
		r:   rand.New(rand.NewSource(cfg.Seed)),
		b:   xmldoc.NewBuilderCap(nPersons * 40),
		cfg: cfg,
	}
	g.start("site")
	g.start("people")
	for i := 0; i < nPersons; i++ {
		g.person(i)
	}
	g.end()
	g.start("regions")
	g.start("namerica")
	for i := 0; i < nPersons/2; i++ {
		g.item(i)
	}
	g.end()
	g.end()
	g.start("open_auctions")
	for i := 0; i < nPersons/4; i++ {
		g.auction(i, nPersons/2)
	}
	g.end()
	g.start("closed_auctions")
	for i := 0; i < nPersons/8; i++ {
		g.closedAuction(i, nPersons/2, nPersons)
	}
	g.end()
	g.categories(4)
	g.end()
	return g.b.MustDocument()
}

func (g *gen) person(id int) {
	r := g.r
	g.start("person", xmldoc.Attr{Name: "id", Value: fmt.Sprintf("person%d", id)})
	g.elem("name", firstNames[r.Intn(len(firstNames))]+" "+lastNames[r.Intn(len(lastNames))])
	g.elem("emailaddress", fmt.Sprintf("mailto:user%d@example.com", id))
	if r.Intn(2) == 0 {
		g.elem("phone", fmt.Sprintf("+1 (%d) %d-%d", 100+r.Intn(900), 100+r.Intn(900), 1000+r.Intn(9000)))
	}
	if r.Intn(4) > 0 {
		g.start("address")
		g.elem("street", fmt.Sprintf("%d %s St", 1+r.Intn(99), lastNames[r.Intn(len(lastNames))]))
		g.elem("city", cities[r.Intn(len(cities))])
		g.elem("country", countries[r.Intn(len(countries))])
		g.elem("zipcode", fmt.Sprintf("%05d", r.Intn(100000)))
		g.end()
	}
	if r.Intn(2) == 0 {
		g.elem("homepage", fmt.Sprintf("http://example.com/~user%d", id))
	}
	g.start("profile", xmldoc.Attr{Name: "income", Value: fmt.Sprintf("%d", 20000+r.Intn(80000))})
	for i := r.Intn(3); i > 0; i-- {
		g.elem("interest", "category"+fmt.Sprint(r.Intn(40)))
	}
	if r.Intn(3) > 0 {
		g.elem("education", educations[r.Intn(len(educations))])
	}
	if r.Intn(4) > 0 {
		g.elem("gender", genders[r.Intn(len(genders))])
	}
	if r.Float64() < g.cfg.yesRate() {
		g.elem("business", "Yes")
	} else {
		g.elem("business", "No")
	}
	if r.Intn(3) > 0 {
		g.elem("age", fmt.Sprintf("%d", 18+r.Intn(53))) // includes 33
	}
	g.end() // profile
	g.end() // person
}

func (g *gen) item(id int) {
	r := g.r
	g.start("item", xmldoc.Attr{Name: "id", Value: fmt.Sprintf("item%d", id)})
	g.elem("location", countries[r.Intn(len(countries))])
	g.elem("quantity", fmt.Sprint(1+r.Intn(5)))
	g.elem("name", itemNames[r.Intn(len(itemNames))])
	g.start("description")
	g.elem("text", g.sentence(10+r.Intn(30)))
	g.end()
	g.elem("payment", "Creditcard")
	g.elem("shipping", "Will ship internationally")
	g.end()
}

func (g *gen) closedAuction(id, maxItem, maxPerson int) {
	r := g.r
	g.start("closed_auction")
	if maxPerson > 0 {
		g.elem("buyer", fmt.Sprintf("person%d", r.Intn(maxPerson)))
		g.elem("seller", fmt.Sprintf("person%d", r.Intn(maxPerson)))
	}
	if maxItem > 0 {
		g.elem("itemref", fmt.Sprintf("item%d", r.Intn(maxItem)))
	}
	g.elem("price", fmt.Sprintf("%d.%02d", 10+r.Intn(900), r.Intn(100)))
	g.elem("date", fmt.Sprintf("%02d/%02d/2001", 1+r.Intn(12), 1+r.Intn(28)))
	g.start("annotation")
	g.elem("description", g.sentence(6+r.Intn(12)))
	g.end()
	g.end()
}

func (g *gen) categories(n int) {
	g.start("categories")
	for i := 0; i < n; i++ {
		g.start("category", xmldoc.Attr{Name: "id", Value: fmt.Sprintf("category%d", i)})
		g.elem("name", g.sentence(2))
		g.elem("description", g.sentence(8))
		g.end()
	}
	g.end()
}

func (g *gen) auction(id, maxItem int) {
	r := g.r
	g.start("open_auction", xmldoc.Attr{Name: "id", Value: fmt.Sprintf("auction%d", id)})
	g.elem("initial", fmt.Sprintf("%d.%02d", 1+r.Intn(300), r.Intn(100)))
	for i := r.Intn(4); i > 0; i-- {
		g.start("bidder")
		g.elem("date", fmt.Sprintf("%02d/%02d/2001", 1+r.Intn(12), 1+r.Intn(28)))
		g.elem("increase", fmt.Sprintf("%d.00", 1+r.Intn(50)))
		g.end()
	}
	if maxItem > 0 {
		g.elem("itemref", fmt.Sprintf("item%d", r.Intn(maxItem)))
	}
	g.elem("current", fmt.Sprintf("%d.%02d", 10+r.Intn(500), r.Intn(100)))
	g.end()
}

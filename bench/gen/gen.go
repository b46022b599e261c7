// Package gen makes the benchmark's inputs: source deltas with known ground
// truth, freshness probes and read traffic. Everything is a pure function of
// the seed, and the platform sees nothing but what this package generates.
//
// The generator is the benchmark's own because workload.SourceSpec draws
// names from 32 x 24 fixed strings and numbers the rest, so past ~2k entities
// every new name blocks with every old one and the KG stops behaving like a
// growing graph. Names here are a bijection of a 24-bit universe index.
package gen

import (
	"fmt"
	"math/rand"
	"net/url"
)

// Entity is the stable facts of one source entity.
type Entity struct {
	Source string
	// Local is the source-local id; the source entity id is Source:Local.
	Local       string
	Type        string
	Name        string
	Aliases     []string
	BirthPlace  string // local id of a city of the same source, "" for none
	Occupations []string
}

// ID is the source entity id the platform links.
func (e Entity) ID() string { return e.Source + ":" + e.Local }

// Volatile is one record of a source's volatile partition (popularity).
type Volatile struct {
	Source, Local, Type string
	Popularity          float64
}

// Delta is one source's share of a batch.
type Delta struct {
	Source   string
	Added    []Entity
	Updated  []Entity
	Volatile []Volatile
}

// Batch is one feed submission.
type Batch struct {
	Deltas []Delta
	// Entities counts the source records carried: adds (duplicates
	// included), updates and volatile overwrites of already known entities.
	Entities int
}

// Mix sizes one source's share of a batch.
type Mix struct {
	Adds       int // new universe entities (each also carries its popularity)
	Updates    int // stable re-emissions of entities the source added before
	Overwrites int // volatile popularity overwrites, Zipf-hot over known entities
}

// Spec fixes the noise and overlap of the source streams.
type Spec struct {
	Sources   int
	DupRate   float64 // an add appears twice in its source, the copy typo'd
	TypoRate  float64 // an add's name is corrupted
	RichFacts int     // multi-valued source-specific facts per entity
	Coverage  float64 // share of the universe each source describes
	ZipfS     float64 // skew of the overwrite traffic
}

// DefaultSpec is the noise every workload uses: three overlapping sources.
func DefaultSpec() Spec {
	return Spec{Sources: 3, DupRate: 0.05, TypoRate: 0.1, RichFacts: 2, Coverage: 0.8, ZipfS: 1.2}
}

// Cities per source; people's birth places point at them, so object
// resolution has references to resolve.
const Cities = 12

// stagger is how many universe indexes apart two sources walk. It exceeds
// any batch's per-source size, so a batch never carries one real-world
// entity twice from different sources: deltas of one batch link against the
// KG at batch start and would each mint their own entity.
const stagger = 128

// probeBase is where probe entities sit in the universe, far from the walk.
const probeBase = 1 << 23

// Stream generates the source batches of one run and remembers the ground
// truth: source entities with equal universe index are one real-world entity.
type Stream struct {
	rng   *rand.Rand
	seed  int64
	names names
	spec  Spec

	pos    []int   // next universe index per source
	added  [][]int // universe indexes each source has added, in order
	rev    []int   // update revision per source
	zipf   []*rand.Zipf
	cities bool

	// Truth maps a person's source entity id to its universe index.
	Truth map[string]int
}

// NewStream starts the streams of a run.
func NewStream(seed int64, spec Spec) *Stream {
	s := &Stream{
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
		names: newNames(seed),
		spec:  spec,
		pos:   make([]int, spec.Sources),
		added: make([][]int, spec.Sources),
		rev:   make([]int, spec.Sources),
		zipf:  make([]*rand.Zipf, spec.Sources),
		Truth: make(map[string]int),
	}
	for k := range s.pos {
		// Source 0 walks ahead; the others meet its entities later.
		s.pos[k] = (spec.Sources - 1 - k) * stagger
	}
	return s
}

func sourceName(k int) string { return fmt.Sprintf("src%02d", k) }

// covers reports whether source k describes universe entity u.
func (s *Stream) covers(k, u int) bool {
	h := uint64(u)*0x9E3779B97F4A7C15 + uint64(k+1)*0xC2B2AE3D27D4EB4F + uint64(s.seed)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return float64(h%10000)/10000 < s.spec.Coverage
}

func (s *Stream) person(k, u int, local, name string) Entity {
	src := sourceName(k)
	e := Entity{
		Source: src, Local: local, Type: "human", Name: name,
		Aliases:    s.names.aliases(u),
		BirthPlace: fmt.Sprintf("city%d", u%Cities),
	}
	for f := 0; f < s.spec.RichFacts; f++ {
		e.Occupations = append(e.Occupations, fmt.Sprintf("%s guild role %d", src, (u+f+s.rev[k])%9))
	}
	s.Truth[e.ID()] = u
	return e
}

// Next generates the next batch: every source contributes mix.
func (s *Stream) Next(mix Mix) Batch {
	var b Batch
	for k := 0; k < s.spec.Sources; k++ {
		src := sourceName(k)
		d := Delta{Source: src}
		if !s.cities {
			for c := 0; c < Cities; c++ {
				// Every source brings its cities in its first delta, so the
				// three deltas of that batch each mint their own; cities are
				// reference targets, not part of the linking ground truth.
				d.Added = append(d.Added, Entity{Source: src, Local: fmt.Sprintf("city%d", c), Type: "city", Name: cityName(c)})
			}
		}
		known := len(s.added[k]) // updates and overwrites target earlier batches only
		for i := 0; i < mix.Adds; i++ {
			u := s.pos[k]
			for !s.covers(k, u) {
				u++
			}
			s.pos[k] = u + 1
			name := s.names.name(u)
			if s.rng.Float64() < s.spec.TypoRate {
				name = typo(name, s.rng)
			}
			local := fmt.Sprintf("e%d", u)
			d.Added = append(d.Added, s.person(k, u, local, name))
			d.Volatile = append(d.Volatile, Volatile{src, local, "human", s.rng.Float64()})
			b.Entities++
			if s.rng.Float64() < s.spec.DupRate {
				d.Added = append(d.Added, s.person(k, u, local+"-dup", typo(s.names.name(u), s.rng)))
				b.Entities++
			}
			s.added[k] = append(s.added[k], u)
		}
		if known > 0 {
			for i := 0; i < mix.Updates; i++ {
				u := s.added[k][s.rng.Intn(known)]
				s.rev[k]++
				d.Updated = append(d.Updated, s.person(k, u, fmt.Sprintf("e%d", u), s.names.name(u)))
				b.Entities++
			}
			if mix.Overwrites > 0 && s.zipf[k] == nil {
				s.zipf[k] = rand.NewZipf(s.rng, s.spec.ZipfS, 1, uint64(known-1))
			}
			for i := 0; i < mix.Overwrites; i++ {
				u := s.added[k][s.zipf[k].Uint64()]
				d.Volatile = append(d.Volatile, Volatile{src, fmt.Sprintf("e%d", u), "human", s.rng.Float64()})
				b.Entities++
			}
		}
		b.Deltas = append(b.Deltas, d)
	}
	s.cities = true
	return b
}

// Added lists the source entity ids of the people added so far, source by
// source in add order (duplicates left out).
func (s *Stream) Added() []string {
	var out []string
	for k, us := range s.added {
		for _, u := range us {
			out = append(out, fmt.Sprintf("%s:e%d", sourceName(k), u))
		}
	}
	return out
}

// Names lists the clean names of the people added so far by source 0.
func (s *Stream) Names() []string {
	out := make([]string, len(s.added[0]))
	for i, u := range s.added[0] {
		out[i] = s.names.name(u)
	}
	return out
}

// ProbeSource is the source freshness probes arrive from.
const ProbeSource = "probe"

// Probe generates freshness probe k: one new person whose occupation is a
// marker value no other entity carries.
func (s *Stream) Probe(k int) (Batch, string) {
	u := probeBase + k
	marker := fmt.Sprintf("marker %d-%d", s.seed, k)
	e := Entity{
		Source: ProbeSource, Local: fmt.Sprintf("p%d", k), Type: "human",
		Name: s.names.name(u), Occupations: []string{marker},
	}
	s.Truth[e.ID()] = u
	return Batch{Deltas: []Delta{{Source: ProbeSource, Added: []Entity{e}}}, Entities: 1}, marker
}

// names maps a universe index to a person name. The map is a bijection of
// the 24-bit index (an odd multiplier permutes it), so names never repeat and
// the universe does not saturate; neighbours share syllables, as real names
// share tokens, so blocking has work to do.
type names struct{ mul, add uint32 }

func newNames(seed int64) names {
	r := rand.New(rand.NewSource(seed ^ 0x5A6A))
	return names{mul: r.Uint32() | 1, add: r.Uint32()}
}

var (
	givenA = [16]string{"Am", "Bru", "Chi", "Daph", "Eme", "Fari", "Gor", "Han", "Iv", "Ju", "Kwa", "Lei", "Mar", "Nad", "Om", "Pri"}
	givenB = [16]string{"ara", "no", "di", "ne", "ka", "da", "an", "a", "o", "n", "me", "la", "co", "ia", "ar", "ya"}
	sur1   = [16]string{"Oka", "Lind", "Mar", "No", "Tana", "Had", "Fer", "Kowa", "Dja", "Pet", "Naka", "Ose", "Var", "Ander", "Mor", "Cas"}
	sur2   = [16]string{"for", "qvi", "che", "va", "ka", "da", "rei", "ls", "lo", "ro", "mu", "i", "ga", "ss", "ea", "ti"}
	sur3   = [16]string{"", "st", "tti", "k", "mi", "d", "ra", "ki", "ne", "v", "ra", "wu", "s", "on", "u", "llo"}
	sur4   = [16]string{"", "a", "en", "ez", "is", "ov", "er", "y", "o", "ic", "an", "el", "us", "in", "ak", "eau"}
)

func (n names) perm(u int) uint32 { return (uint32(u)*n.mul + n.add) & 0xFFFFFF }

func (n names) name(u int) string {
	p := n.perm(u)
	return givenA[p&15] + givenB[p>>4&15] + " " + sur1[p>>8&15] + sur2[p>>12&15] + sur3[p>>16&15] + sur4[p>>20&15]
}

// aliases gives a quarter of the universe a nickname form.
func (n names) aliases(u int) []string {
	p := n.perm(u)
	if p>>6&3 != 0 {
		return nil
	}
	return []string{givenA[p&15] + "y " + sur1[p>>8&15] + sur2[p>>12&15] + sur3[p>>16&15] + sur4[p>>20&15]}
}

var cityNames = [Cities]string{
	"Springdale", "Rivermouth", "Eastport", "Northfield", "Lakewood", "Granite Falls",
	"Clearwater", "Oakhurst", "Maplewood", "Stonebridge", "Fairhaven", "Windmere",
}

func cityName(c int) string { return cityNames[c%Cities] }

func typo(name string, rng *rand.Rand) string {
	r := []rune(name)
	if len(r) < 4 {
		return name
	}
	i := 1 + rng.Intn(len(r)-2)
	switch rng.Intn(3) {
	case 0: // swap
		r[i], r[i+1] = r[i+1], r[i]
	case 1: // drop
		r = append(r[:i], r[i+1:]...)
	default: // double
		r = append(r[:i+1], r[i:]...)
	}
	return string(r)
}

// Class is a request's place in the read mix.
type Class uint8

// The read mix: 60% KGQ queries (80% of the texts from the hot set, 20% from
// the tail), 20% entity lookups, 20% searches.
const (
	QueryHot Class = iota
	QueryTail
	EntityGet
	Search
	Classes
)

func (c Class) String() string {
	return [...]string{"query_hot", "query_tail", "entity", "search"}[c]
}

// Request is one read: the URL path with its query, and for an entity lookup
// the id the payload must carry.
type Request struct {
	Class Class
	Path  string
	ID    string
	Text  string // the KGQ or search text before escaping
}

// HotTexts and TailTexts size the query text sets: the hot set fits every
// cache, the tail exceeds the 512-plan and 1024-result caches.
const (
	HotTexts  = 16
	TailTexts = 4096
)

// Requests generates n reads over the KG ids and names of the seeded graph.
func Requests(seed int64, n int, ids, names []string) []Request {
	rng := rand.New(rand.NewSource(seed ^ 0x7EAD))
	hot := make([]string, 0, HotTexts)
	for i := 0; i < 12; i++ {
		hot = append(hot, fmt.Sprintf(`entity(type="human", name=%q) | attr("name")`, names[i*len(names)/12]))
	}
	hot = append(hot,
		`entity(type="human") | rank() | limit(5) | attr("name")`,
		`entity(type="human") | filter("popularity", gt=0.2) | limit(10)`,
		fmt.Sprintf(`search(%q, k=5) | rank() | limit(3)`, names[0]),
		fmt.Sprintf(`search(%q, k=8)`, names[len(names)/2]),
	)
	attrs := []string{"name", "occupation", "alias", "popularity", "birth_place"}
	tail := make([]string, TailTexts)
	for t := range tail {
		if t%2 == 0 {
			tail[t] = fmt.Sprintf(`entity(type="human", name=%q) | attr(%q) | limit(%d)`,
				names[(t/2)%len(names)], attrs[(t/2/len(names))%len(attrs)], 1+t/2/len(names)/len(attrs))
		} else {
			tail[t] = fmt.Sprintf(`entity(type="human") | filter("popularity", gt=%.3f) | limit(%d)`,
				float64(t%997)/1000, 3+t/997)
		}
	}
	tailZipf := rand.NewZipf(rng, 1.1, 1, TailTexts-1)
	idZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(ids)-1))
	nameZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(names)-1))
	out := make([]Request, n)
	for i := range out {
		switch {
		case i%5 < 3:
			r := Request{Class: QueryHot}
			if rng.Float64() < 0.8 {
				r.Text = hot[rng.Intn(len(hot))]
			} else {
				r.Class, r.Text = QueryTail, tail[tailZipf.Uint64()]
			}
			r.Path = "/v1/query?q=" + url.QueryEscape(r.Text)
			out[i] = r
		case i%5 == 3:
			id := ids[idZipf.Uint64()]
			out[i] = Request{Class: EntityGet, ID: id, Path: "/v1/entity?id=" + url.QueryEscape(id)}
		default:
			text := names[nameZipf.Uint64()]
			out[i] = Request{Class: Search, Text: text, Path: "/v1/search?q=" + url.QueryEscape(text) + "&k=5"}
		}
	}
	return out
}

// PairwiseF1 scores a clustering against the ground truth over the pairs of
// source entities: a pair is predicted when both link to one KG entity and
// true when both have one universe index.
func PairwiseF1(cluster map[string]string, truth map[string]int) float64 {
	type cell struct {
		kg string
		u  int
	}
	byKG := make(map[string]int)
	byU := make(map[int]int)
	cells := make(map[cell]int)
	for src, kg := range cluster {
		u, ok := truth[src]
		if !ok {
			continue
		}
		byKG[kg]++
		byU[u]++
		cells[cell{kg, u}]++
	}
	pairs := func(n int) float64 { return float64(n) * float64(n-1) / 2 }
	var predicted, actual, both float64
	for _, n := range byKG {
		predicted += pairs(n)
	}
	for _, n := range byU {
		actual += pairs(n)
	}
	for _, n := range cells {
		both += pairs(n)
	}
	if predicted == 0 || actual == 0 || both == 0 {
		return 0
	}
	p, r := both/predicted, both/actual
	return 2 * p * r / (p + r)
}

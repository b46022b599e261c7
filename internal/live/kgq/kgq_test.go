package kgq

import (
	"reflect"
	"testing"

	"saga/internal/live"
	"saga/internal/triple"
)

func worldStore() *live.Store {
	s := live.NewStore()
	put := func(id, typ, name string, facts map[string]triple.Value, boost float64) {
		e := triple.NewEntity(triple.EntityID(id))
		e.AddFact(triple.PredType, triple.String(typ))
		e.AddFact(triple.PredName, triple.String(name))
		for p, v := range facts {
			e.AddFact(p, v)
		}
		s.Put(e, boost)
	}
	put("kg:CA", "country", "Canada", map[string]triple.Value{
		"head_of_state": triple.Ref("kg:JT"), "capital": triple.Ref("kg:OTT"), "population": triple.Int(38000000),
	}, 0.9)
	put("kg:CHI", "city", "Chicago", map[string]triple.Value{
		"mayor": triple.Ref("kg:BJ"), "population": triple.Int(2700000), "located_in": triple.Ref("kg:US2"),
	}, 0.8)
	put("kg:OTT", "city", "Ottawa", map[string]triple.Value{
		"population": triple.Int(1000000), "located_in": triple.Ref("kg:CA"),
	}, 0.4)
	put("kg:JT", "human", "Justin Trudeau", map[string]triple.Value{"spouse": triple.Ref("kg:SG")}, 0.7)
	put("kg:BJ", "human", "Brandon Johnson", nil, 0.3)
	put("kg:SG", "human", "Sophie Gregoire", map[string]triple.Value{"birth_place": triple.Ref("kg:MTL")}, 0.2)
	put("kg:MTL", "city", "Montreal", map[string]triple.Value{"population": triple.Int(1700000)}, 0.5)
	put("kg:US2", "country", "United States", nil, 0.95)
	return s
}

func TestParseRoundTrip(t *testing.T) {
	q, err := Parse(`entity(type="city", name="Chicago") | follow("mayor") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Stages) != 3 || q.Stages[0].Name != "entity" || q.Stages[2].Name != "attr" {
		t.Fatalf("stages = %+v", q.Stages)
	}
	// String() renders parseable KGQ.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if len(q2.Stages) != 3 {
		t.Fatalf("round trip stages = %d", len(q2.Stages))
	}
	// String() is KGQ text that parses back to the same query: control
	// characters stay raw (the lexer reads "\n" as "n"), only quotes and
	// backslashes are escaped, and exponents carry no '+'.
	for _, src := range []string{
		"search(\"a\nb\")", "search(\"tab\there, nul\x00\")", `search("say \"hi\" \\ bye")`,
		`search('single "quoted"')`, `limit(1000000)`, `filter("population", gt=1e21, lt=-2.5e-7)`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if back, err := Parse(q.String()); err != nil || !reflect.DeepEqual(back, q) {
			t.Errorf("%q renders %q, which parses to %+v (%v)", src, q.String(), back, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "entity", "entity(", `entity(type=)`, `entity("x") |`, `| entity("x")`,
		`entity(type="x") extra`, `entity(name="unterminated`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestEntityLookupAndFollow(t *testing.T) {
	e := NewEngine(worldStore())
	res, err := e.Query(`entity(type="city", name="Chicago") | follow("mayor") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != "kg:BJ" {
		t.Fatalf("ids = %v", res.IDs)
	}
	if got := res.Texts(); len(got) != 1 || got[0] != "Brandon Johnson" {
		t.Fatalf("texts = %v", got)
	}
}

func TestMultiHopTraversal(t *testing.T) {
	e := NewEngine(worldStore())
	// Spouse of the head of state of Canada, then her birthplace.
	res, err := e.Query(`entity(name="Canada") | follow("head_of_state") | follow("spouse") | follow("birth_place") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Text() != "Montreal" {
		t.Fatalf("values = %v", res.Texts())
	}
}

func TestReverseTraversal(t *testing.T) {
	e := NewEngine(worldStore())
	res, err := e.Query(`id("kg:CA") | in("located_in") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.Texts()[0] != "Ottawa" {
		t.Fatalf("res = %v", res.Texts())
	}
}

func TestFilterComparisons(t *testing.T) {
	e := NewEngine(worldStore())
	res, err := e.Query(`entity(type="city") | filter("population", gt=1500000) | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 { // Chicago, Montreal
		t.Fatalf("ids = %v", res.IDs)
	}
	res, err = e.Query(`entity(type="city") | filter("population", lt=1100000)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != "kg:OTT" {
		t.Fatalf("lt filter = %v", res.IDs)
	}
}

func TestPushdownEquivalence(t *testing.T) {
	e := NewEngine(worldStore())
	a, err := e.Query(`entity(type="city") | filter("name", eq="Chicago")`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(`entity(type="city", name="Chicago")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IDs) != 1 || len(b.IDs) != 1 || a.IDs[0] != b.IDs[0] {
		t.Fatalf("pushdown diverges: %v vs %v", a.IDs, b.IDs)
	}
}

// TestPlanKeysUnambiguous: a pushed-down filter predicate that is not an
// identifier must not render the plan key of a different query, or the
// result cache would serve one query's result for the other.
func TestPlanKeysUnambiguous(t *testing.T) {
	e := NewEngine(worldStore())
	odd, err := e.Query(`entity(type="city") | filter("name=\"Chicago\", type", eq="city")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(odd.IDs) != 0 {
		t.Fatalf("odd predicate matched %v", odd.IDs)
	}
	plain, err := e.Query(`entity(type="city", name="Chicago", type="city")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.IDs) != 1 || plain.IDs[0] != "kg:CHI" {
		t.Fatalf("result cache served another plan's result: %v", plain.IDs)
	}
}

func TestRankAndLimit(t *testing.T) {
	e := NewEngine(worldStore())
	res, err := e.Query(`entity(type="city") | rank() | limit(2) | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.IDs[0] != "kg:CHI" { // highest boost city
		t.Fatalf("ranked = %v", res.IDs)
	}
}

func TestSearchSeed(t *testing.T) {
	e := NewEngine(worldStore())
	res, err := e.Query(`search("justin trudeau", k=3)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || res.IDs[0] != "kg:JT" {
		t.Fatalf("search = %v", res.IDs)
	}
}

func TestVirtualOperators(t *testing.T) {
	e := NewEngine(worldStore())
	if err := e.RegisterVirtual("leader_of", `entity(name="$1") | follow("head_of_state")`); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterVirtual("leader_of", "entity(name=\"x\")"); err == nil {
		t.Fatal("duplicate virtual accepted")
	}
	res, err := e.Query(`leader_of("Canada") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Text() != "Justin Trudeau" {
		t.Fatalf("virtual result = %v", res.Texts())
	}
	// Nested virtuals expand recursively.
	if err := e.RegisterVirtual("leader_spouse", `leader_of("$1") | follow("spouse")`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(`leader_spouse("Canada") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Text() != "Sophie Gregoire" {
		t.Fatalf("nested virtual = %v", res.Texts())
	}
}

func TestResultCacheInvalidation(t *testing.T) {
	s := worldStore()
	e := NewEngine(s)
	q := `entity(type="city") | attr("name")`
	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the store: cache must not serve the stale result.
	extra := triple.NewEntity("kg:NEW")
	extra.AddFact(triple.PredType, triple.String("city"))
	extra.AddFact(triple.PredName, triple.String("Newtown"))
	s.Put(extra, 0)
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.IDs) != len(r1.IDs)+1 {
		t.Fatalf("stale cache: %d then %d", len(r1.IDs), len(r2.IDs))
	}
}

func TestUnknownOperator(t *testing.T) {
	e := NewEngine(worldStore())
	if _, err := e.Query(`teleport("mars")`); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestCompositeAttrTraversal(t *testing.T) {
	s := live.NewStore()
	h := triple.NewEntity("kg:H1")
	h.AddFact(triple.PredType, triple.String("human"))
	h.AddFact(triple.PredName, triple.String("J. Smith"))
	h.AddRelFact("educated_at", "r1", "school", triple.Ref("kg:UW"))
	s.Put(h, 0)
	uw := triple.NewEntity("kg:UW")
	uw.AddFact(triple.PredType, triple.String("school"))
	uw.AddFact(triple.PredName, triple.String("UW"))
	s.Put(uw, 0)
	e := NewEngine(s)
	res, err := e.Query(`entity(name="J. Smith") | follow("educated_at.school") | attr("name")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Text() != "UW" {
		t.Fatalf("composite traversal = %v", res.Texts())
	}
}

// FuzzParse drives the /v1/query entry point: Parse, Plan and ExecuteOn
// against a small store. No input may panic, and accepted text must render
// to KGQ that parses and renders back to the same text.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`entity(type="city", name="Chicago") | follow("mayor") | attr("name")`,
		`entity(type="city") | filter("population", gt=1500000) | rank() | limit(2)`,
		`id("kg:CA") | in("located_in") | attr("name")`,
		`search("justin trudeau", k=3) | filter("name", eq="Justin Trudeau")`,
		`leader_of("Canada") | attr("name")`,
	} {
		f.Add(seed)
	}
	e := NewEngine(worldStore())
	if err := e.RegisterVirtual("leader_of", `entity(name="$1") | follow("head_of_state")`); err != nil {
		f.Fatal(err)
	}
	sn := e.Store.Current()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", src, text, err)
		}
		if again := back.String(); again != text {
			t.Fatalf("%q renders %q, which renders back as %q", src, text, again)
		}
		if plan, err := e.Plan(q); err == nil {
			_, _ = e.ExecuteOn(plan, sn)
		}
	})
}

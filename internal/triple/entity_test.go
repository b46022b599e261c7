package triple

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// paperEntity reproduces the example of Figure 2 / Table 1: J. Smith with a
// composite educated_at relationship.
func paperEntity() *Entity {
	e := NewEntity("kg:E1")
	e.Add(New("kg:E1", "name", String("J. Smith")).WithSource("src1", 0.9).MergeProvenance(
		New("kg:E1", "name", String("J. Smith")).WithSource("src2", 0.8)))
	e.Add(
		NewRel("kg:E1", "educated_at", "r1", "school", String("UW")).WithSource("src2", 0.8),
		NewRel("kg:E1", "educated_at", "r1", "degree", String("PhD")).WithSource("src2", 0.8),
		NewRel("kg:E1", "educated_at", "r1", "year", Int(2005)).WithSource("src2", 0.8),
	)
	e.AddFact("type", String("human"))
	return e
}

func TestEntityAccessors(t *testing.T) {
	e := paperEntity()
	if got := e.Name(); got != "J. Smith" {
		t.Errorf("Name() = %q", got)
	}
	if got := e.Type(); got != "human" {
		t.Errorf("Type() = %q", got)
	}
	if got := e.First("missing"); !got.IsNull() {
		t.Errorf("First(missing) = %v", got)
	}
	if got := len(e.Get("educated_at")); got != 0 {
		t.Errorf("Get must skip composite rows, got %d", got)
	}
	preds := e.Predicates()
	want := []string{"educated_at", "name", "type"}
	if !reflect.DeepEqual(preds, want) {
		t.Errorf("Predicates() = %v, want %v", preds, want)
	}
	srcs := e.SourceSet()
	if !reflect.DeepEqual(srcs, []string{"src1", "src2"}) {
		t.Errorf("SourceSet() = %v", srcs)
	}
}

func TestRelNodes(t *testing.T) {
	e := paperEntity()
	e.AddRelFact("educated_at", "r2", "school", String("MIT"))
	nodes := e.RelNodes()
	if len(nodes) != 2 {
		t.Fatalf("RelNodes() = %d nodes, want 2", len(nodes))
	}
	if nodes[0].RelID != "r1" || nodes[1].RelID != "r2" {
		t.Fatalf("node order: %s, %s", nodes[0].RelID, nodes[1].RelID)
	}
	r1 := nodes[0]
	if got := r1.Attr("school").Text(); got != "UW" {
		t.Errorf("r1.school = %q", got)
	}
	if got := r1.Attr("year").Int64(); got != 2005 {
		t.Errorf("r1.year = %d", got)
	}
	if got := r1.Attr("absent"); !got.IsNull() {
		t.Errorf("absent attr = %v", got)
	}
	if len(r1.Facts) != 3 {
		t.Errorf("r1 facts = %d", len(r1.Facts))
	}
}

func TestAliasesDedup(t *testing.T) {
	e := NewEntity("kg:E7")
	e.AddFact("name", String("Robert"))
	e.AddFact("alias", String("Bob"))
	e.AddFact("alias", String("Robert")) // duplicate of name
	e.AddFact("alias", String("Bobby"))
	e.AddFact("alias", String("")) // empty must be skipped
	got := e.Aliases()
	want := []string{"Robert", "Bob", "Bobby"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Aliases() = %v, want %v", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := paperEntity()
	c := e.Clone()
	c.Triples[0].Sources[0] = "mutated"
	c.Triples[0].Object = String("other")
	if e.Triples[0].Sources[0] == "mutated" {
		t.Error("Clone shares source slices")
	}
	if e.Triples[0].Object.Text() == "other" {
		t.Error("Clone shares triple values")
	}
}

func TestDedupMergesProvenance(t *testing.T) {
	e := NewEntity("kg:E1")
	e.Add(New("kg:E1", "name", String("X")).WithSource("a", 0.5))
	e.Add(New("kg:E1", "name", String("X")).WithSource("b", 0.6))
	e.Add(New("kg:E1", "name", String("Y")).WithSource("a", 0.5))
	e.Dedup()
	if len(e.Triples) != 2 {
		t.Fatalf("after dedup: %d triples, want 2", len(e.Triples))
	}
	var merged *Triple
	for i := range e.Triples {
		if e.Triples[i].Object.Text() == "X" {
			merged = &e.Triples[i]
		}
	}
	if merged == nil || !reflect.DeepEqual(merged.Sources, []string{"a", "b"}) {
		t.Fatalf("merged provenance: %+v", merged)
	}
}

func TestRewrite(t *testing.T) {
	e := NewEntity("musicdb:a1")
	e.AddFact("name", String("Artist"))
	e.AddFact("signed_to", Ref("musicdb:l1"))
	e.AddFact("birth_place", Ref("musicdb:c9"))
	refs := map[EntityID]EntityID{"musicdb:l1": "kg:E5"}
	e.Rewrite("kg:E2", refs)
	if e.ID != "kg:E2" {
		t.Errorf("ID = %s", e.ID)
	}
	for _, tr := range e.Triples {
		if tr.Subject != "kg:E2" {
			t.Errorf("subject not rewritten: %v", tr)
		}
	}
	if got := e.First("signed_to").Ref(); got != "kg:E5" {
		t.Errorf("mapped ref = %s", got)
	}
	if got := e.First("birth_place").Ref(); got != "musicdb:c9" {
		t.Errorf("unmapped ref must be preserved, got %s", got)
	}
}

func TestValidate(t *testing.T) {
	good := paperEntity()
	if err := good.Validate(); err != nil {
		t.Errorf("valid entity rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Entity)
	}{
		{"empty id", func(e *Entity) { e.ID = "" }},
		{"foreign subject", func(e *Entity) { e.Triples[0].Subject = "kg:E9" }},
		{"empty predicate", func(e *Entity) { e.Triples[0].Predicate = "" }},
		{"partial rel", func(e *Entity) { e.Triples[1].RelPred = "" }},
		{"trust overflow", func(e *Entity) {
			e.Triples[0].Trust = []float64{1, 1, 1, 1, 1}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := paperEntity()
			c.mutate(e)
			if err := e.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestFingerprintProperties(t *testing.T) {
	e := paperEntity()
	f1 := e.Fingerprint()

	// Order independence.
	shuffled := e.Clone()
	r := rand.New(rand.NewSource(4))
	r.Shuffle(len(shuffled.Triples), func(i, j int) {
		shuffled.Triples[i], shuffled.Triples[j] = shuffled.Triples[j], shuffled.Triples[i]
	})
	if shuffled.Fingerprint() != f1 {
		t.Error("fingerprint depends on triple order")
	}

	// Provenance independence (delta computation must not see churn from
	// re-attribution alone).
	reattributed := e.Clone()
	reattributed.Triples[0].Sources = []string{"other"}
	if reattributed.Fingerprint() != f1 {
		t.Error("fingerprint depends on provenance")
	}

	// Content sensitivity.
	changed := e.Clone()
	changed.Triples[0].Object = String("J. Smith Jr.")
	if changed.Fingerprint() == f1 {
		t.Error("fingerprint insensitive to object change")
	}
	grown := e.Clone()
	grown.AddFact("alias", String("Smithy"))
	if grown.Fingerprint() == f1 {
		t.Error("fingerprint insensitive to added fact")
	}
}

func TestReferences(t *testing.T) {
	e := NewEntity("kg:E1")
	e.AddFact("spouse", Ref("kg:E2"))
	e.AddRelFact("educated_at", "r1", "school", Ref("kg:E3"))
	e.AddFact("alias", String("not a ref"))
	e.AddFact("friend", Ref("kg:E2")) // duplicate target
	got := e.References()
	want := []EntityID{"kg:E2", "kg:E3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("References() = %v, want %v", got, want)
	}
}

// TestDedupOrderIndependentWithNaN: a payload holding a NaN fact dedups to
// the same bytes whatever order its facts arrive in. Compare once let NaN
// equal every float, so the sort left such payloads in arrival order.
func TestDedupOrderIndependentWithNaN(t *testing.T) {
	encode := func(vals ...float64) []byte {
		e := NewEntity("kg:E1")
		for _, v := range vals {
			e.Add(New("", "popularity", Float(v)).WithSource("s", 0.9))
		}
		e.Dedup()
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	nan := math.NaN()
	want := encode(1, 2, nan, 3)
	if got := encode(3, nan, 1, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup depends on arrival order:\n%x\n%x", got, want)
	}
	e := NewEntity("kg:E1")
	for _, v := range []float64{nan, 0, math.Copysign(0, -1), math.Inf(1), -1} {
		e.Add(New("", "popularity", Float(v)))
	}
	e.Dedup()
	var got []string
	for _, tr := range e.Triples {
		got = append(got, tr.Object.Text())
	}
	if want := []string{"-1", "-0", "0", "+Inf", "NaN"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("float order = %v, want %v", got, want)
	}
}

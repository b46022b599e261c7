package triple

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTripleKeyDistinguishesFacts(t *testing.T) {
	base := New("kg:E1", "name", String("J. Smith"))
	variants := []Triple{
		New("kg:E2", "name", String("J. Smith")),
		New("kg:E1", "alias", String("J. Smith")),
		New("kg:E1", "name", String("J. Smith Jr.")),
		New("kg:E1", "name", Ref("J. Smith")),
		NewRel("kg:E1", "name", "r1", "x", String("J. Smith")),
		base.WithLocale("fr"),
	}
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d has colliding key: %v vs %v", i, v, base)
		}
	}
	same := New("kg:E1", "name", String("J. Smith")).WithSource("src9", 0.1)
	if same.Key() != base.Key() {
		t.Error("provenance must not affect Key")
	}
}

func TestTripleKeySeparatorInjection(t *testing.T) {
	// Fields containing the separator byte must not let two distinct facts
	// collide in the common (kind-preserving) case.
	a := New("kg:E1", "p\x1fq", String("r"))
	b := New("kg:E1", "p", String("q\x1fr"))
	// a encodes predicate "p\x1fq"; b encodes predicate "p" and object
	// "q\x1fr". Their keys differ because the object-kind byte sits between
	// locale and object text.
	if a.Key() == b.Key() {
		t.Error("separator injection caused key collision")
	}
}

func TestConfidenceNoisyOr(t *testing.T) {
	tr := Triple{Trust: []float64{0.9, 0.8}}
	want := 1 - 0.1*0.2
	if got := tr.Confidence(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Confidence() = %v, want %v", got, want)
	}
	if got := (Triple{}).Confidence(); got != 0 {
		t.Errorf("no-source confidence = %v, want 0", got)
	}
	clamped := Triple{Trust: []float64{-0.5, 1.5}}
	if got := clamped.Confidence(); got != 1 {
		t.Errorf("clamped confidence = %v, want 1", got)
	}
}

func TestMergeProvenance(t *testing.T) {
	a := New("kg:E1", "name", String("x"))
	a.Sources = []string{"src2", "src1"}
	a.Trust = []float64{0.8, 0.9}
	b := a
	b.Sources = []string{"src1", "src3"}
	b.Trust = []float64{0.95, 0.7}

	m := a.MergeProvenance(b)
	if !reflect.DeepEqual(m.Sources, []string{"src1", "src2", "src3"}) {
		t.Fatalf("merged sources = %v", m.Sources)
	}
	if !reflect.DeepEqual(m.Trust, []float64{0.95, 0.8, 0.7}) {
		t.Fatalf("merged trust = %v (max per source should win)", m.Trust)
	}
	// Idempotence.
	again := m.MergeProvenance(m)
	if !reflect.DeepEqual(again.Sources, m.Sources) || !reflect.DeepEqual(again.Trust, m.Trust) {
		t.Error("MergeProvenance not idempotent")
	}
	// Merging with an empty triple only normalizes.
	norm := a.MergeProvenance(Triple{})
	if !sort.StringsAreSorted(norm.Sources) {
		t.Error("normalization must sort sources")
	}
}

func TestMergeProvenanceCommutativeOnSources(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	srcs := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		mk := func() Triple {
			tr := New("kg:E1", "p", String("v"))
			n := 1 + r.Intn(3)
			for j := 0; j < n; j++ {
				tr.Sources = append(tr.Sources, srcs[r.Intn(len(srcs))])
				tr.Trust = append(tr.Trust, float64(r.Intn(10))/10)
			}
			return tr
		}
		a, b := mk(), mk()
		ab, ba := a.MergeProvenance(b), b.MergeProvenance(a)
		if !reflect.DeepEqual(ab.Sources, ba.Sources) || !reflect.DeepEqual(ab.Trust, ba.Trust) {
			t.Fatalf("merge not commutative: %v+%v -> %v vs %v", a, b, ab, ba)
		}
	}
}

func TestDropSource(t *testing.T) {
	tr := New("kg:E1", "name", String("x"))
	tr.Sources = []string{"src1", "src2"}
	tr.Trust = []float64{0.9, 0.8}

	kept, ok := tr.DropSource("src1")
	if !ok {
		t.Fatal("expected remaining attribution")
	}
	if !reflect.DeepEqual(kept.Sources, []string{"src2"}) || !reflect.DeepEqual(kept.Trust, []float64{0.8}) {
		t.Fatalf("after drop: %v / %v", kept.Sources, kept.Trust)
	}
	_, ok = kept.DropSource("src2")
	if ok {
		t.Fatal("dropping last source must report no remaining attribution")
	}
	same, ok := tr.DropSource("missing")
	if !ok || len(same.Sources) != 2 {
		t.Fatal("dropping a missing source must be a no-op with attribution intact")
	}
}

func TestSortTriplesDeterministic(t *testing.T) {
	ts := []Triple{
		New("kg:E2", "name", String("b")),
		NewRel("kg:E1", "educated_at", "r1", "year", Int(2005)),
		New("kg:E1", "name", String("a")),
		NewRel("kg:E1", "educated_at", "r1", "school", String("UW")),
		New("kg:E1", "alias", String("a2")),
	}
	SortTriples(ts)
	for i := 1; i < len(ts); i++ {
		if CompareTriples(ts[i-1], ts[i]) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, ts[i-1], ts[i])
		}
	}
	if ts[0].Predicate != "alias" {
		t.Errorf("expected alias first, got %v", ts[0])
	}
}

func TestTripleStringForms(t *testing.T) {
	simple := New("kg:E1", "name", String("J. Smith"))
	if got := simple.String(); got != "<kg:E1 name J. Smith>" {
		t.Errorf("simple String() = %q", got)
	}
	comp := NewRel("kg:E1", "educated_at", "r1", "school", String("UW"))
	if got := comp.String(); got != "<kg:E1 educated_at[r1].school UW>" {
		t.Errorf("composite String() = %q", got)
	}
	if !comp.IsComposite() || simple.IsComposite() {
		t.Error("IsComposite misreports")
	}
}

// TestCompareTriplesAgreesWithKey: Dedup merges facts by sorting, so two
// triples must compare equal exactly when their Keys are equal. The triples
// come from small domains, so that equal and nearly equal facts are common,
// and carry values of every kind, NaNs with different payloads, signed zeros
// and infinities among them.
func TestCompareTriplesAgreesWithKey(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	floats := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), 1.5, -1.5, 1e-300}
	value := func() Value {
		switch r.Intn(9) {
		case 0:
			return Null
		case 1:
			return String(pick("", "a", "1"))
		case 2:
			return Int(int64(r.Intn(3) - 1))
		case 3:
			return Float(floats[r.Intn(len(floats))])
		case 4:
			return Bool(r.Intn(2) == 0)
		case 5:
			return Time(time.Unix(0, int64(r.Intn(3))))
		case 6:
			return Ref(EntityID(pick("a", "kg:E1")))
		}
		return randomValue(r)
	}
	ts := make([]Triple, 400)
	for i := range ts {
		ts[i] = Triple{Subject: EntityID(pick("kg:E1", "kg:E2")), Predicate: pick("p", "q"),
			Locale: pick("", "en"), Object: value(), Sources: []string{pick("s1", "s2")}}
		if r.Intn(3) == 0 {
			ts[i].RelID, ts[i].RelPred = pick("r1", "r2"), pick("x", "y")
		}
	}
	equal := 0
	for _, a := range ts {
		for _, b := range ts {
			c := CompareTriples(a, b)
			if (c == 0) != (a.Key() == b.Key()) {
				t.Fatalf("CompareTriples = %d but Keys equal = %v:\n%v %#v\n%v %#v", c, a.Key() == b.Key(), a, a.Object, b, b.Object)
			}
			if c != -CompareTriples(b, a) {
				t.Fatalf("CompareTriples not antisymmetric for %v, %v", a, b)
			}
			if c == 0 {
				equal++
			}
		}
	}
	if equal <= len(ts) {
		t.Fatalf("only %d equal pairs: the domains are too wide to test the equal case", equal)
	}
}

package triple

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Well-known predicates used across the platform. Following the paper, entity
// typing and cross-source identity are themselves facts in the graph.
const (
	// PredType carries an entity's ontology type ("human", "song", ...).
	PredType = "type"
	// PredName carries an entity's primary display name.
	PredName = "name"
	// PredAlias carries alternative names used for matching and retrieval.
	PredAlias = "alias"
	// PredSameAs records the link between a source entity and the KG entity
	// it was resolved to, providing full provenance of the linking process.
	PredSameAs = "same_as"
	// PredSourceID carries the mandatory per-source entity identifier that
	// makes incremental construction possible.
	PredSourceID = "source_id"
)

// Triple is one extended-triple row (Table 1 of the paper). Simple facts
// leave RelID and RelPred empty. Composite facts use Predicate for the
// relationship (for example "educated_at"), RelID to group the rows of one
// relationship node, and RelPred for the attribute inside the node (for
// example "school"). Sources and Trust run in parallel: Trust[i] is the
// trustworthiness score of Sources[i] for this fact.
type Triple struct {
	Subject   EntityID  `json:"subj"`
	Predicate string    `json:"pred"`
	RelID     string    `json:"r_id,omitempty"`
	RelPred   string    `json:"r_pred,omitempty"`
	Object    Value     `json:"obj"`
	Locale    string    `json:"locale,omitempty"`
	Sources   []string  `json:"sources,omitempty"`
	Trust     []float64 `json:"trust,omitempty"`
}

// New constructs a simple (non-composite) fact.
func New(subject EntityID, predicate string, object Value) Triple {
	return Triple{Subject: subject, Predicate: predicate, Object: object}
}

// NewRel constructs one row of a composite relationship node.
func NewRel(subject EntityID, predicate, relID, relPred string, object Value) Triple {
	return Triple{Subject: subject, Predicate: predicate, RelID: relID, RelPred: relPred, Object: object}
}

// WithSource returns a copy of the triple attributed to a single source with
// the given trust score.
func (t Triple) WithSource(source string, trust float64) Triple {
	t.Sources = []string{source}
	t.Trust = []float64{trust}
	return t
}

// WithLocale returns a copy of the triple tagged with a locale.
func (t Triple) WithLocale(locale string) Triple {
	t.Locale = locale
	return t
}

// IsComposite reports whether the triple is a row of a relationship node.
func (t Triple) IsComposite() bool { return t.RelID != "" }

// Key identifies the fact independently of provenance metadata: two triples
// with equal keys state the same fact, possibly observed from different
// sources, and are merged during fusion.
func (t Triple) Key() string {
	var b strings.Builder
	b.Grow(len(t.Subject) + len(t.Predicate) + len(t.RelID) + len(t.RelPred) + len(t.Locale) + 24)
	b.WriteString(string(t.Subject))
	b.WriteByte('\x1f')
	b.WriteString(t.Predicate)
	b.WriteByte('\x1f')
	b.WriteString(t.RelID)
	b.WriteByte('\x1f')
	b.WriteString(t.RelPred)
	b.WriteByte('\x1f')
	b.WriteString(t.Locale)
	b.WriteByte('\x1f')
	b.WriteByte(byte('0' + t.Object.Kind()))
	b.WriteString(t.Object.Text())
	return b.String()
}

// FactKey identifies the fact slot (subject+predicate+relationship position)
// without the object, used to detect conflicting objects for functional
// predicates during truth discovery.
func (t Triple) FactKey() string {
	return string(t.Subject) + "\x1f" + t.Predicate + "\x1f" + t.RelID + "\x1f" + t.RelPred + "\x1f" + t.Locale
}

// String renders the triple for debugging.
func (t Triple) String() string {
	if t.IsComposite() {
		return fmt.Sprintf("<%s %s[%s].%s %s>", t.Subject, t.Predicate, t.RelID, t.RelPred, t.Object.Text())
	}
	return fmt.Sprintf("<%s %s %s>", t.Subject, t.Predicate, t.Object.Text())
}

// HasSource reports whether the fact is attributed to the given source.
func (t Triple) HasSource(source string) bool {
	for _, s := range t.Sources {
		if s == source {
			return true
		}
	}
	return false
}

// Confidence aggregates the per-source trust scores into a single probability
// of correctness using a noisy-or model: independent sources each assert the
// fact with their own reliability, so the fact is wrong only if every source
// is wrong.
func (t Triple) Confidence() float64 {
	if len(t.Trust) == 0 {
		return 0
	}
	wrong := 1.0
	for _, p := range t.Trust {
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		wrong *= 1 - p
	}
	return 1 - wrong
}

// MergeProvenance merges the provenance of o into t: the source arrays are
// unioned and, for sources present in both, the maximum trust wins. The
// receiver's fact fields are kept. The result has its sources sorted for
// deterministic output.
func (t Triple) MergeProvenance(o Triple) Triple {
	if len(o.Sources) == 0 {
		return t.normalizeProvenance()
	}
	trust := make(map[string]float64, len(t.Sources)+len(o.Sources))
	add := func(sources []string, scores []float64) {
		for i, s := range sources {
			sc := 0.0
			if i < len(scores) {
				sc = scores[i]
			}
			if cur, ok := trust[s]; !ok || sc > cur {
				trust[s] = sc
			}
		}
	}
	add(t.Sources, t.Trust)
	add(o.Sources, o.Trust)
	merged := t
	merged.Sources = make([]string, 0, len(trust))
	for s := range trust {
		merged.Sources = append(merged.Sources, s)
	}
	sort.Strings(merged.Sources)
	merged.Trust = make([]float64, len(merged.Sources))
	for i, s := range merged.Sources {
		merged.Trust[i] = trust[s]
	}
	return merged
}

func (t Triple) normalizeProvenance() Triple {
	if len(t.Sources) < 2 || sort.StringsAreSorted(t.Sources) {
		return t
	}
	type st struct {
		source string
		trust  float64
	}
	pairs := make([]st, len(t.Sources))
	for i, s := range t.Sources {
		sc := 0.0
		if i < len(t.Trust) {
			sc = t.Trust[i]
		}
		pairs[i] = st{s, sc}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].source < pairs[j].source })
	out := t
	out.Sources = make([]string, len(pairs))
	out.Trust = make([]float64, len(pairs))
	for i, p := range pairs {
		out.Sources[i] = p.source
		out.Trust[i] = p.trust
	}
	return out
}

// DropSource removes the given source's attribution from the triple. It
// returns the updated triple and whether any attribution remains; a triple
// whose last source is dropped must be deleted from the graph, implementing
// on-demand data deletion (requirement 2 in §1).
func (t Triple) DropSource(source string) (Triple, bool) {
	if !t.HasSource(source) {
		return t, len(t.Sources) > 0
	}
	out := t
	out.Sources = make([]string, 0, len(t.Sources)-1)
	out.Trust = make([]float64, 0, len(t.Trust))
	for i, s := range t.Sources {
		if s == source {
			continue
		}
		out.Sources = append(out.Sources, s)
		if i < len(t.Trust) {
			out.Trust = append(out.Trust, t.Trust[i])
		}
	}
	return out, len(out.Sources) > 0
}

// SortTriples orders triples deterministically by subject, predicate, relID,
// relPred, locale, then object.
func SortTriples(ts []Triple) { slices.SortFunc(ts, CompareTriples) }

// CompareTriples provides the total order used by SortTriples. Two triples
// compare equal exactly when their Keys are equal, which is what lets Dedup
// merge facts by sorting.
func CompareTriples(a, b Triple) int {
	if c := strings.Compare(string(a.Subject), string(b.Subject)); c != 0 {
		return c
	}
	if c := strings.Compare(a.Predicate, b.Predicate); c != 0 {
		return c
	}
	if c := strings.Compare(a.RelID, b.RelID); c != 0 {
		return c
	}
	if c := strings.Compare(a.RelPred, b.RelPred); c != 0 {
		return c
	}
	if c := strings.Compare(a.Locale, b.Locale); c != 0 {
		return c
	}
	return a.Object.Compare(b.Object)
}

// Package triple implements Saga's extended-triples data model: the flat
// relational representation of the knowledge graph described in §2.1 of the
// paper. A triple states a fact <subject, predicate, object>; composite
// relationships are flattened by carrying a relationship id and relationship
// predicate on the triple itself, so the frequently used one-hop data is
// retrievable without a self-join. Every triple carries provenance (sources),
// locale, and per-source trust metadata.
package triple

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// EntityID identifies an entity node. IDs are namespaced: canonical KG
// entities use the "kg:" prefix while unlinked source entities keep their
// source namespace (for example "musicdb:artist-17"). Subject linking during
// knowledge construction rewrites source IDs to KG IDs.
type EntityID string

// KGNamespace is the namespace prefix of canonical knowledge-graph entities.
const KGNamespace = "kg:"

// IsKG reports whether the ID refers to a canonical KG entity rather than an
// unlinked source entity.
func (id EntityID) IsKG() bool { return strings.HasPrefix(string(id), KGNamespace) }

// Namespace returns the namespace portion of the ID (the text before the
// first ':'), or "" when the ID carries no namespace.
func (id EntityID) Namespace() string {
	if i := strings.IndexByte(string(id), ':'); i >= 0 {
		return string(id)[:i]
	}
	return ""
}

// Local returns the namespace-local portion of the ID.
func (id EntityID) Local() string {
	if i := strings.IndexByte(string(id), ':'); i >= 0 {
		return string(id)[i+1:]
	}
	return string(id)
}

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Value kinds. The zero value KindNull marks an absent object.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
	KindRef // reference to another entity
)

var kindNames = [...]string{"null", "string", "int", "float", "bool", "time", "ref"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is the object field of a triple: either a literal (string, int,
// float, bool, time) or a reference to another entity. The zero Value is
// null. Values are immutable once constructed.
type Value struct {
	kind Kind
	str  string  // KindString payload; KindRef entity id
	num  int64   // KindInt, KindBool (0/1), KindTime (unix nanos)
	flt  float64 // KindFloat
}

// String constructs a string literal value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer literal value.
func Int(v int64) Value { return Value{kind: KindInt, num: v} }

// Float constructs a floating-point literal value.
func Float(v float64) Value { return Value{kind: KindFloat, flt: v} }

// Bool constructs a boolean literal value.
func Bool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Time constructs a timestamp literal value with nanosecond precision.
func Time(t time.Time) Value { return Value{kind: KindTime, num: t.UnixNano()} }

// Ref constructs an entity-reference value.
func Ref(id EntityID) Value { return Value{kind: KindRef, str: string(id)} }

// Null is the absent value.
var Null = Value{}

// Kind returns the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is valid for KindString values and
// returns "" otherwise; use Text for a lossy rendering of any kind.
func (v Value) Str() string {
	if v.kind == KindString {
		return v.str
	}
	return ""
}

// Int64 returns the integer payload, or 0 for non-integer values.
func (v Value) Int64() int64 {
	if v.kind == KindInt {
		return v.num
	}
	return 0
}

// Float64 returns the numeric payload as a float. Integer values are widened.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindFloat:
		return v.flt
	case KindInt:
		return float64(v.num)
	}
	return 0
}

// Bool reports the boolean payload, or false for non-boolean values.
func (v Value) Bool() bool { return v.kind == KindBool && v.num != 0 }

// Time returns the timestamp payload, or the zero time for other kinds.
func (v Value) Time() time.Time {
	if v.kind == KindTime {
		return time.Unix(0, v.num).UTC()
	}
	return time.Time{}
}

// Ref returns the referenced entity ID, or "" for non-reference values.
func (v Value) Ref() EntityID {
	if v.kind == KindRef {
		return EntityID(v.str)
	}
	return ""
}

// IsRef reports whether the value references another entity.
func (v Value) IsRef() bool { return v.kind == KindRef }

// Text renders the value as a human-readable string regardless of kind. It is
// the representation used by string-similarity functions and text indexing.
func (v Value) Text() string {
	switch v.kind {
	case KindString, KindRef:
		return v.str
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.flt, 'g', -1, 64)
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	}
	return ""
}

// Equal reports deep equality of two values, including kind.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString, KindRef:
		return v.str == o.str
	case KindFloat:
		return v.flt == o.flt || (math.IsNaN(v.flt) && math.IsNaN(o.flt))
	default:
		return v.num == o.num
	}
}

// Compare orders values: first by kind, then by payload. It is a total order,
// used by deterministic iteration and sort-based operators, and it agrees with
// Triple.Key: among floats, NaN sorts after every number and equals every NaN
// (Key renders them alike), and -0 sorts before +0 (Key tells them apart).
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString, KindRef:
		return strings.Compare(v.str, o.str)
	case KindFloat:
		return cmp.Compare(floatOrder(v.flt), floatOrder(o.flt))
	default:
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
		return 0
	}
}

// floatOrder maps a float to a key whose order is Compare's: numeric, with
// -0 before +0, and every NaN alike after +Inf.
func floatOrder(f float64) uint64 {
	if math.IsNaN(f) {
		return math.MaxUint64
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b // negative: the larger the magnitude, the smaller the key
	}
	return b | 1<<63
}

// jsonValue is the wire form of Value used by the JSON codec.
type jsonValue struct {
	Kind  string   `json:"kind"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	jv := jsonValue{Kind: v.kind.String()}
	switch v.kind {
	case KindString, KindRef:
		jv.Str = &v.str
	case KindInt, KindBool, KindTime:
		jv.Int = &v.num
	case KindFloat:
		jv.Float = &v.flt
	}
	return json.Marshal(jv)
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	kind, found := KindNull, false
	for i, name := range kindNames {
		if name == jv.Kind {
			kind, found = Kind(i), true
			break
		}
	}
	if !found {
		return fmt.Errorf("triple: unknown value kind %q", jv.Kind)
	}
	out := Value{kind: kind}
	switch kind {
	case KindString, KindRef:
		if jv.Str != nil {
			out.str = *jv.Str
		}
	case KindInt, KindBool, KindTime:
		if jv.Int != nil {
			out.num = *jv.Int
		}
	case KindFloat:
		if jv.Float != nil {
			out.flt = *jv.Float
		}
	}
	*v = out
	return nil
}

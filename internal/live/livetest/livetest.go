// Package livetest compares live KG snapshots in tests: two snapshots are
// equal when every read method gives the same answer on every probe.
package livetest

import (
	"fmt"
	"reflect"

	"saga/internal/live"
	"saga/internal/triple"
)

// Diff reports the first read on which got and want answer differently,
// or nil. It probes with the IDs, types, attribute values, references,
// aliases and descriptions of probes. Pass every record either view has
// held, so a posting an overwritten or deleted record left behind is probed
// too.
func Diff(got, want *live.Snapshot, probes []*triple.Entity) error {
	seen := make(map[string]bool)
	var err error
	check := func(call string, ask func(*live.Snapshot) any) {
		if err != nil || seen[call] {
			return
		}
		seen[call] = true
		if g, w := ask(got), ask(want); !equal(g, w) {
			err = fmt.Errorf("%s = %v, want %v", call, g, w)
		}
	}
	check("Len()", func(v *live.Snapshot) any { return v.Len() })
	k := want.Len() + 1
	for _, p := range probes {
		id := p.ID
		check(fmt.Sprintf("GetShared(%s)", id), func(v *live.Snapshot) any { return v.GetShared(id) })
		check(fmt.Sprintf("Boost(%s)", id), func(v *live.Snapshot) any { return v.Boost(id) })
		for _, typ := range p.Types() {
			check(fmt.Sprintf("ByType(%q)", typ), func(v *live.Snapshot) any { return v.ByType(typ) })
		}
		for _, t := range p.Triples {
			pred, val := t.Predicate, t.Object.Text()
			if t.IsComposite() {
				pred += "." + t.RelPred
			}
			check(fmt.Sprintf("ByAttr(%q, %q)", pred, val), func(v *live.Snapshot) any { return v.ByAttr(pred, val) })
			if ref := t.Object.Ref(); t.Object.IsRef() {
				check(fmt.Sprintf("InRefs(%q, %s)", pred, ref), func(v *live.Snapshot) any { return v.InRefs(pred, ref) })
			}
		}
		queries := p.Aliases()
		if d := p.First("description"); !d.IsNull() {
			queries = append(queries, d.Text())
		}
		for _, q := range queries {
			check(fmt.Sprintf("SearchText(%q)", q), func(v *live.Snapshot) any { return v.SearchText(q, k) })
		}
	}
	return err
}

// equal is reflect.DeepEqual, except that a nil and an empty slice are equal.
func equal(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Slice && vb.Kind() == reflect.Slice && va.Len() == 0 && vb.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

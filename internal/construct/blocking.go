// Package construct implements Saga's knowledge construction pipeline (§2.3,
// §2.4): the delta-based, parallel process that standardizes source entities
// against the KG. Linking performs in-source deduplication and subject
// linking through blocking, pair generation, matching, and correlation
// clustering; object resolution maps reference values to KG identifiers; and
// fusion merges linked payloads into a consistent KG with truth-discovery
// based confidence scores.
package construct

import (
	"fmt"
	"slices"
	"strings"

	"saga/internal/strsim"
	"saga/internal/triple"
)

// Blocker assigns entities to blocks: lightweight functions that group
// entities likely to match, reducing the quadratic pair space. An entity may
// land in several blocks; candidate pairs are generated within blocks only.
type Blocker interface {
	// Keys returns the block keys of the entity. Entities sharing at least
	// one key become candidate pairs.
	Keys(e *triple.Entity) []string
}

// QGramBlocker keys entities by the q-grams of their normalized name (the
// paper's example blocking function: movies with high overlap of title
// q-grams share buckets). To bound the number of keys per entity, only every
// Stride-th gram is kept; matching entities still collide with high
// probability because they share many grams.
type QGramBlocker struct {
	// Q is the gram size; default 3.
	Q int
	// Stride keeps every Stride-th gram as a key; default 2.
	Stride int
}

// Keys implements Blocker.
func (b QGramBlocker) Keys(e *triple.Entity) []string {
	q := b.Q
	if q == 0 {
		q = 3
	}
	stride := b.Stride
	if stride == 0 {
		stride = 2
	}
	name := strsim.Normalize(e.Name())
	if name == "" {
		return nil
	}
	r := []rune(name)
	if len(r) <= q {
		return []string{"qg:" + name}
	}
	var keys []string
	for i := 0; i+q <= len(r); i += stride {
		keys = append(keys, "qg:"+string(r[i:i+q]))
	}
	return keys
}

// TokenBlocker keys entities by the individual tokens of their name and
// aliases, a recall-oriented complement to q-gram blocking that survives
// word reordering ("Smith, John" vs "John Smith").
type TokenBlocker struct {
	// MinLen drops tokens shorter than this; default 3 (articles, initials).
	MinLen int
}

// Keys implements Blocker.
func (b TokenBlocker) Keys(e *triple.Entity) []string {
	minLen := b.MinLen
	if minLen == 0 {
		minLen = 3
	}
	seen := make(map[string]bool)
	var keys []string
	for _, alias := range e.Aliases() {
		for _, tok := range strings.Fields(strsim.Normalize(alias)) {
			if len(tok) < minLen || seen[tok] {
				continue
			}
			seen[tok] = true
			keys = append(keys, "tk:"+tok)
		}
	}
	return keys
}

// PrefixBlocker keys entities by the first N runes of the normalized name, a
// cheap high-precision blocker.
type PrefixBlocker struct {
	// N is the prefix length; default 4.
	N int
}

// Keys implements Blocker.
func (b PrefixBlocker) Keys(e *triple.Entity) []string {
	n := b.N
	if n == 0 {
		n = 4
	}
	name := strsim.Normalize(e.Name())
	if name == "" {
		return nil
	}
	r := []rune(name)
	if len(r) > n {
		r = r[:n]
	}
	return []string{"pf:" + string(r)}
}

// CompositeBlocker unions the keys of several blockers.
type CompositeBlocker []Blocker

// Keys implements Blocker.
func (cb CompositeBlocker) Keys(e *triple.Entity) []string {
	var keys []string
	for _, b := range cb {
		keys = append(keys, b.Keys(e)...)
	}
	return keys
}

// DefaultBlocker is the blocking configuration used when a domain does not
// register its own: token plus prefix blocking.
func DefaultBlocker() Blocker {
	return CompositeBlocker{TokenBlocker{}, PrefixBlocker{}}
}

// Pair is a candidate entity pair produced by blocking. Pairs are canonical:
// A sorts before B.
type Pair struct {
	A, B triple.EntityID
}

// MakePair canonicalizes a pair: the lexicographically smaller ID always
// lands in A, so MakePair(a, b) == MakePair(b, a) and a candidate set keyed
// by Pair values can never hold both (A,B) and (B,A). Every pair producer —
// GeneratePairs, AllPairs, and BlockIndex probes — emits through MakePair;
// consumers (scoring dedup, Resolve's negative-edge lookup) rely on the
// invariant. Asserted in blocking_test.go.
func MakePair(a, b triple.EntityID) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// BlockingResult reports blocking statistics for monitoring and the blocking
// ablation experiment.
type BlockingResult struct {
	Pairs       []Pair
	Blocks      int
	LargestSize int
	// Comparisons is len(Pairs); the quadratic baseline would be n*(n-1)/2.
	Comparisons int
}

// GenerateParams bounds pair generation.
type GenerateParams struct {
	// MaxBlockSize skips blocks larger than this (oversized blocks indicate
	// a useless key like a stop word); default 256.
	MaxBlockSize int
}

// GeneratePairs runs blocking over the combined payload and emits the
// candidate pairs of entities co-occurring in at least one block. The pair
// list is deduplicated and sorted for deterministic downstream processing.
func GeneratePairs(entities []*triple.Entity, blocker Blocker, params GenerateParams) BlockingResult {
	if params.MaxBlockSize == 0 {
		params.MaxBlockSize = 256
	}
	blocks := make(map[string][]triple.EntityID)
	for _, e := range entities {
		for _, k := range blocker.Keys(e) {
			blocks[k] = append(blocks[k], e.ID)
		}
	}
	res := BlockingResult{Blocks: len(blocks)}
	for _, ids := range blocks {
		if len(ids) > res.LargestSize {
			res.LargestSize = len(ids)
		}
		if len(ids) > params.MaxBlockSize {
			continue
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if ids[i] != ids[j] {
					res.Pairs = append(res.Pairs, MakePair(ids[i], ids[j]))
				}
			}
		}
	}
	res.Pairs = sortPairs(res.Pairs)
	res.Comparisons = len(res.Pairs)
	return res
}

// sortPairs sorts candidate pairs by (A, B) and drops the duplicates a pair
// sharing several blocks leaves, in place.
func sortPairs(pairs []Pair) []Pair {
	slices.SortFunc(pairs, func(p, q Pair) int {
		if c := strings.Compare(string(p.A), string(q.A)); c != 0 {
			return c
		}
		return strings.Compare(string(p.B), string(q.B))
	})
	return slices.Compact(pairs)
}

// AllPairs is the quadratic baseline used by the blocking ablation: every
// distinct pair is a candidate.
func AllPairs(entities []*triple.Entity) BlockingResult {
	var res BlockingResult
	res.Blocks = 1
	res.LargestSize = len(entities)
	for i := 0; i < len(entities); i++ {
		for j := i + 1; j < len(entities); j++ {
			res.Pairs = append(res.Pairs, MakePair(entities[i].ID, entities[j].ID))
		}
	}
	res.Comparisons = len(res.Pairs)
	return res
}

// PairKey renders a pair for diagnostics.
func (p Pair) String() string { return fmt.Sprintf("(%s,%s)", p.A, p.B) }

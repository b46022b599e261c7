// Package strsim provides the similarity-function library of Saga (§5.1):
// deterministic string similarities (edit distances, token and q-gram
// overlap) used to featurize matching models, plus learned neural string
// encoders trained with distant supervision and a triplet objective. Learned
// similarities capture semantic equivalences (synonyms such as "Robert" and
// "Bob") that deterministic functions cannot.
package strsim

import (
	"math"
	"strings"
	"unicode"
)

// Normalize lower-cases the string, collapses runs of whitespace to single
// spaces, and strips leading/trailing space. All similarity functions in this
// package operate on normalized text so that case and spacing differences do
// not dominate scores.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range strings.TrimSpace(s) {
		if unicode.IsSpace(r) {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions, and substitutions transforming one
// into the other.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSim maps edit distance into a similarity in [0,1]:
// 1 - distance/maxLen. Two empty strings are fully similar.
func LevenshteinSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	m := la
	if lb > m {
		m = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(m)
}

// Hamming returns the number of positions at which equal-length strings
// differ. For unequal lengths it counts the length difference as mismatches.
func Hamming(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	d := 0
	for i := 0; i < n; i++ {
		if ra[i] != rb[i] {
			d++
		}
	}
	d += len(ra) - n + len(rb) - n
	return d
}

// Jaro returns the Jaro similarity in [0,1]. Strings of up to 48 runes are
// decoded, and their match flags kept, in stack buffers.
func Jaro(a, b string) float64 {
	var runeBuf [2][48]rune
	var flagBuf [2][48]bool
	ra, rb := appendRunes(runeBuf[0][:0], a), appendRunes(runeBuf[1][:0], b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := append(flagBuf[0][:0], make([]bool, la)...)
	matchB := append(flagBuf[1][:0], make([]bool, lb)...)
	matches := 0
	for i, r := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || rb[j] != r {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between the matched subsequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// appendRunes appends the runes of s to dst.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// JaroWinkler returns the Jaro-Winkler similarity: Jaro boosted by a common
// prefix of up to four runes, the standard variant used for name matching.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// QGrams returns the multiset of q-grams of s as a count map. Strings shorter
// than q yield a single gram containing the whole string, so short names are
// still comparable.
func QGrams(s string, q int) map[string]int {
	out := make(map[string]int)
	r := []rune(s)
	if len(r) < q {
		if len(r) > 0 {
			out[string(r)]++
		}
		return out
	}
	for i := 0; i+q <= len(r); i++ {
		out[string(r[i:i+q])]++
	}
	return out
}

// JaccardQGram returns the Jaccard similarity between the q-gram sets of a
// and b. It is the blocking-friendly similarity the paper's example blocking
// function uses ("high overlap of their title q-grams").
func JaccardQGram(a, b string, q int) float64 {
	ga, gb := QGrams(a, q), QGrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := 0
	for g := range ga {
		if _, ok := gb[g]; ok {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TokenSet returns the set of whitespace-delimited tokens of s.
func TokenSet(s string) map[string]bool {
	out := make(map[string]bool)
	for _, tok := range strings.Fields(s) {
		out[tok] = true
	}
	return out
}

// JaccardToken returns the Jaccard similarity between the token sets of a
// and b.
func JaccardToken(a, b string) float64 {
	ta, tb := TokenSet(a), TokenSet(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := 0
	for t := range ta {
		if tb[t] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// CosineToken returns the cosine similarity between the token count vectors
// of a and b.
func CosineToken(a, b string) float64 {
	ca := tokenCounts(a)
	cb := tokenCounts(b)
	if len(ca) == 0 || len(cb) == 0 {
		if len(ca) == 0 && len(cb) == 0 {
			return 1
		}
		return 0
	}
	var dot, na, nb float64
	for t, x := range ca {
		na += float64(x * x)
		if y, ok := cb[t]; ok {
			dot += float64(x * y)
		}
	}
	for _, y := range cb {
		nb += float64(y * y)
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func tokenCounts(s string) map[string]int {
	out := make(map[string]int)
	for _, tok := range strings.Fields(s) {
		out[tok]++
	}
	return out
}

// PrefixSim returns the length of the common prefix divided by the shorter
// length, a cheap signal for blocking keys.
func PrefixSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	if n == 0 {
		if len(ra) == len(rb) {
			return 1
		}
		return 0
	}
	p := 0
	for p < n && ra[p] == rb[p] {
		p++
	}
	return float64(p) / float64(n)
}

// Feature names for the deterministic feature vector, aligned with
// FeatureVector's output order. Matching models consume these features.
var FeatureNames = []string{
	"levenshtein", "jaro_winkler", "jaccard_q2", "jaccard_q3",
	"jaccard_token", "cosine_token", "prefix",
}

// FeatureVector computes the deterministic similarity features between two
// strings, normalized first. The result is ordered as FeatureNames.
func FeatureVector(a, b string) []float64 {
	a, b = Normalize(a), Normalize(b)
	return []float64{
		LevenshteinSim(a, b),
		JaroWinkler(a, b),
		JaccardQGram(a, b, 2),
		JaccardQGram(a, b, 3),
		JaccardToken(a, b),
		CosineToken(a, b),
		PrefixSim(a, b),
	}
}

package textindex

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenIndex builds the fixed corpus behind testdata/bm25_golden.txt:
// documents of varied length and term overlap, explicit and unset boosts
// (which score as 1), one replaced document and one deleted one, so the
// scores depend on the document count, the average length, every term's
// document frequency and the boosts.
func goldenIndex() (*Index, func(id string) float64) {
	ix := New()
	rng := rand.New(rand.NewSource(5))
	words := strings.Fields("paris london adele singer hotel river film director jazz blue city north star")
	choices := []float64{0, 1, 2.5, 0.3}
	boosts := make(map[string]float64)
	for i := 0; i < 40; i++ {
		terms := make([]string, 1+rng.Intn(9))
		for j := range terms {
			terms[j] = words[rng.Intn(len(words))]
		}
		id := fmt.Sprintf("d%02d", i)
		ix.Put(id, strings.Join(terms, " "))
		if b := choices[rng.Intn(len(choices))]; b != 0 {
			boosts[id] = b
		}
	}
	ix.Put("d07", "Adele ADELE adele, singer")
	delete(boosts, "d07")
	ix.Delete("d13")
	return ix, func(id string) float64 {
		if b, ok := boosts[id]; ok {
			return b
		}
		return 1
	}
}

var goldenQueries = []string{"adele", "paris hotel", "jazz blue city", "north star river film", "Singer, ADELE!", "london london"}

// renderGolden lists the top 10 hits of every golden query, one line per hit:
// the quoted query, the document ID and the exact float64 score.
func renderGolden(sn *Snapshot, boost func(id string) float64) string {
	var b strings.Builder
	for _, q := range goldenQueries {
		for _, h := range sn.Search(q, 10, boost) {
			fmt.Fprintf(&b, "%q\t%s\t%s\n", q, h.ID, strconv.FormatFloat(h.Score, 'g', -1, 64))
		}
	}
	return b.String()
}

// TestBM25Golden pins ranking and scores bit for bit: the committed hits were
// produced by the index that kept its postings behind the storage package's
// Postings role, before the posting maps moved into this package, and its
// own per-document boosts, before boosts moved to the index's owner.
func TestBM25Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/bm25_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	ix, boost := goldenIndex()
	if got := renderGolden(ix.Snapshot(), boost); got != string(want) {
		t.Fatalf("Snapshot.Search drifted from the golden hits:\n got:\n%s\nwant:\n%s", got, want)
	}
}

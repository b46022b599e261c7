package workload

import (
	"math/rand"
	"testing"

	"saga/internal/triple"
)

func TestSourceSpecDeterministic(t *testing.T) {
	a := SourceSpec{Name: "s", Count: 20, DupRate: 0.3, TypoRate: 0.2, Seed: 1}.Entities()
	b := SourceSpec{Name: "s", Count: 20, DupRate: 0.3, TypoRate: 0.2, Seed: 1}.Entities()
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Name() != b[i].Name() {
			t.Fatalf("entity %d differs", i)
		}
	}
}

func TestSourceSpecGroundTruth(t *testing.T) {
	ents := SourceSpec{Name: "s", Offset: 5, Count: 10, Seed: 2}.Entities()
	people := 0
	for _, e := range ents {
		if e.Type() == "human" {
			people++
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if people != 10 {
		t.Fatalf("people = %d", people)
	}
	// Duplicates share the universe name modulo typos.
	dup := SourceSpec{Name: "s", Count: 50, DupRate: 1, Seed: 3}.Entities()
	dups := 0
	for _, e := range dup {
		if len(e.ID) > 4 && e.ID[len(e.ID)-4:] == "-dup" {
			dups++
		}
	}
	if dups != 50 {
		t.Fatalf("dups = %d", dups)
	}
}

func TestMusicSpecGraph(t *testing.T) {
	g := MusicSpec{Artists: 10, SongsPerArtist: 3, Playlists: 4, TracksPerList: 5,
		People: 8, MediaPeople: 6, Seed: 1}.Graph()
	if got := len(g.IDsByType("music_artist")); got != 10 {
		t.Fatalf("artists = %d", got)
	}
	if got := len(g.IDsByType("song")); got != 30 {
		t.Fatalf("songs = %d", got)
	}
	if got := len(g.IDsByType("playlist")); got != 4 {
		t.Fatalf("playlists = %d", got)
	}
	// Every song references an existing artist.
	for _, id := range g.IDsByType("song") {
		ref := g.Get(id).First("performed_by").Ref()
		if !g.Has(ref) {
			t.Fatalf("song %s references missing artist %s", id, ref)
		}
	}
	// Movies carry composite cast nodes.
	movies := g.IDsByType("movie")
	if len(movies) != 6 {
		t.Fatalf("movies = %d", len(movies))
	}
	if nodes := g.Get(movies[0]).RelNodes(); len(nodes) == 0 {
		t.Fatal("movie has no cast node")
	}
}

func TestMentionWorld(t *testing.T) {
	w := MentionSpec{Groups: 10, PerGroup: 3, Mentions: 100, Seed: 4}.Generate()
	if len(w.Corpus) != 100 || len(w.TypedCorpus) != 100 {
		t.Fatalf("corpus = %d/%d", len(w.Corpus), len(w.TypedCorpus))
	}
	tails := 0
	for i, m := range w.Corpus {
		if !w.Graph.Has(m.Truth) {
			t.Fatalf("truth %s not in graph", m.Truth)
		}
		if m.Context == "" {
			t.Fatal("empty context")
		}
		if w.TypedCorpus[i].TypeHint == "" {
			t.Fatal("typed corpus missing hint")
		}
		if m.Truth[len(m.Truth)-1] != '0' {
			tails++
		}
	}
	if tails == 0 {
		t.Fatal("no tail mentions generated")
	}
	// Head members are more important than tails.
	head := w.Scores["kg:G000M0"].Importance
	tail := w.Scores["kg:G000M1"].Importance
	if head <= tail {
		t.Fatalf("head importance %f <= tail %f", head, tail)
	}
}

func TestStreamSpec(t *testing.T) {
	events := StreamSpec{Games: 3, Updates: 20, Seed: 5}.Events()
	if len(events) != 20 {
		t.Fatalf("events = %d", len(events))
	}
	for _, ev := range events {
		if ev.Source == "" || ev.ID == "" || len(ev.Mentions) != 2 {
			t.Fatalf("event = %+v", ev)
		}
		if ev.Facts["home_score"].Int64() < 0 {
			t.Fatal("negative score")
		}
	}
	teams := TeamsGraph([]string{"A", "B"})
	if len(teams) != 2 || teams[0].Type() != "sports_team" {
		t.Fatalf("teams = %+v", teams)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	z := NewZipf(rng, 1.5, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("head %d not more frequent than torso %d", counts[0], counts[50])
	}
}

func TestNameGenerators(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		n := PersonName(i)
		if seen[n] {
			t.Fatalf("duplicate person name %q at %d", n, i)
		}
		seen[n] = true
	}
	if AliasesOf("Carlos Silva") == nil {
		t.Fatal("expected aliases for Carlos")
	}
	if SongTitle(3) == "" || CityName(7) == "" || ArtistName(2) == "" {
		t.Fatal("empty generated names")
	}
	_ = triple.PredName
}

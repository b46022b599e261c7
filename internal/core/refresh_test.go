package core_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"saga/internal/core"
	"saga/internal/serve"
)

// TestRefreshServingDropsDeletedEntities: an entity the KG deletes leaves
// the live store at the next RefreshServing — /v1/entity answers 404 for it
// and neither queries nor text search return it.
func TestRefreshServingDropsDeletedEntities(t *testing.T) {
	p := core.NewTestPlatform(t, core.Options{})
	v1 := "id,name,genres,pop\na1,Mira Solane,pop|soul,0.9\na2,Dax Verro,rock,0.7\n"
	if _, err := p.IngestSource(core.MusicSource(), strings.NewReader(v1)); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	gone, ok := p.KG.Lookup("musicdb:a2")
	if !ok {
		t.Fatal("a2 not linked")
	}

	v2 := "id,name,genres,pop\na1,Mira Solane,pop|soul,0.9\n"
	if _, err := p.IngestSource(core.MusicSource(), strings.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	if p.GraphReplica.Has(gone) {
		t.Fatalf("replica kept %s after its source row was deleted", gone)
	}
	p.RefreshServing()

	if got, want := p.Live.Len(), p.GraphReplica.Len(); got != want {
		t.Fatalf("live store holds %d entities, replica %d", got, want)
	}
	ts := httptest.NewServer(serve.New(p, serve.Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/entity?id=" + url.QueryEscape(string(gone)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/entity?id=%s = %d, want 404", gone, resp.StatusCode)
	}
	res, err := p.Query(`entity(type="music_artist")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] == gone {
		t.Fatalf("music_artist query = %v, want only the surviving artist", res.IDs)
	}
	for _, hit := range p.Live.Serving().SearchText("Dax Verro", 5) {
		if hit.ID == string(gone) {
			t.Fatalf("search still hits deleted entity %s", gone)
		}
	}
}

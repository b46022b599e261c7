package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"saga/internal/core"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/serve"
	"saga/internal/triple"
	"saga/internal/workload"
)

// testServer assembles a platform seeded from synthetic sources and wraps
// the serving tier in an httptest server.
func testServer(t *testing.T) (*core.Platform, *httptest.Server) {
	t.Helper()
	p, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for s := 0; s < 2; s++ {
		spec := workload.SourceSpec{
			Name: fmt.Sprintf("src%02d", s), Offset: s * 40, Count: 80,
			Seed: int64(s + 1), RichFacts: 2,
		}
		if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
			t.Fatal(err)
		}
	}
	p.RefreshServing()
	ts := httptest.NewServer(serve.New(p, serve.Options{}).Handler())
	t.Cleanup(ts.Close)
	return p, ts
}

// get issues a GET and returns the status plus decoded JSON body.
func get(t *testing.T, rawURL string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: non-JSON body: %v", rawURL, err)
	}
	return resp.StatusCode, body
}

// errCode digs the code out of the error envelope, failing on any other shape.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error response lacks the envelope: %v", body)
	}
	code, _ := env["code"].(string)
	if code == "" || env["message"] == "" {
		t.Fatalf("envelope missing code/message: %v", body)
	}
	return code
}

func TestQueryRoute(t *testing.T) {
	_, ts := testServer(t)
	q := url.QueryEscape(`entity(type="human") | rank() | limit(3) | attr("name")`)
	status, body := get(t, ts.URL+"/v1/query?q="+q)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, body)
	}
	if n := len(body["ids"].([]any)); n != 3 {
		t.Fatalf("ids = %d, want 3", n)
	}
	if n := len(body["values"].([]any)); n != 3 {
		t.Fatalf("values = %d, want 3", n)
	}
	if body["version"].(float64) <= 0 {
		t.Fatal("missing snapshot version")
	}
}

func TestQueryEmptyResultIsJSONArray(t *testing.T) {
	_, ts := testServer(t)
	status, body := get(t, ts.URL+"/v1/query?q="+url.QueryEscape(`entity(type="nonesuch")`))
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if ids, ok := body["ids"].([]any); !ok || len(ids) != 0 {
		t.Fatalf("empty result must encode as [], got %v", body["ids"])
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		name, url, code string
		status          int
	}{
		{"bad KGQ", "/v1/query?q=" + url.QueryEscape(`teleport("mars")`), "bad_query", http.StatusBadRequest},
		{"unparsable KGQ", "/v1/query?q=" + url.QueryEscape(`entity(`), "bad_query", http.StatusBadRequest},
		{"missing q", "/v1/query", "bad_request", http.StatusBadRequest},
		{"unknown param", "/v1/query?q=x&limit=5", "bad_request", http.StatusBadRequest},
	} {
		status, body := get(t, ts.URL+tc.url)
		if status != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, status, tc.status)
		}
		if code := errCode(t, body); code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, code, tc.code)
		}
	}
}

func TestEntityRoute(t *testing.T) {
	p, ts := testServer(t)
	ids := p.Live.Current().ByType("human")
	if len(ids) == 0 {
		t.Fatal("seed produced no humans")
	}
	status, body := get(t, ts.URL+"/v1/entity?id="+url.QueryEscape(string(ids[0])))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, body)
	}
	if body["id"] != string(ids[0]) {
		t.Fatalf("entity payload id = %v, want %s", body["id"], ids[0])
	}

	status, body = get(t, ts.URL+"/v1/entity?id=kg:never-constructed")
	if status != http.StatusNotFound {
		t.Fatalf("missing entity: status = %d", status)
	}
	if code := errCode(t, body); code != "not_found" {
		t.Fatalf("missing entity: code = %q", code)
	}

	status, body = get(t, ts.URL+"/v1/entity")
	if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
		t.Fatalf("missing id: status = %d body = %v", status, body)
	}
}

// TestEntityServesCurationEdit: a curation hot fix decided on p.Live is what
// /v1/entity serves, once the bounded-staleness window has passed.
func TestEntityServesCurationEdit(t *testing.T) {
	p, ts := testServer(t)
	id := p.Live.Current().ByType("human")[0]
	var nameFact triple.Triple
	for _, tr := range p.Live.Get(id).Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: id, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/entity?id=" + url.QueryEscape(string(id)))
		if err != nil {
			t.Fatal(err)
		}
		var served triple.Entity
		err = json.NewDecoder(resp.Body).Decode(&served)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, decode error %v", resp.StatusCode, err)
		}
		if served.Name() == "Corrected Name" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/entity still serves name %q after the curation edit", served.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSearchRoute(t *testing.T) {
	p, ts := testServer(t)
	ids := p.Live.Current().ByType("human")
	name := p.Live.Current().GetShared(ids[0]).Name()
	status, body := get(t, ts.URL+"/v1/search?q="+url.QueryEscape(name)+"&k=3")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, body)
	}
	hits := body["hits"].([]any)
	if len(hits) == 0 || len(hits) > 3 {
		t.Fatalf("hits = %d, want 1..3", len(hits))
	}
	top := hits[0].(map[string]any)
	if top["id"] == "" || top["score"].(float64) <= 0 {
		t.Fatalf("malformed hit: %v", top)
	}

	for _, bad := range []string{"k=0", "k=-2", "k=three"} {
		status, body = get(t, ts.URL+"/v1/search?q=x&"+bad)
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("%s: status = %d body = %v", bad, status, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	for _, route := range []string{"/v1/query", "/v1/entity", "/v1/search", "/v1/stats", "/v1/healthz"} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status = %d", route, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("POST %s: Allow = %q", route, allow)
		}
		if code := errCode(t, body); code != "method_not_allowed" {
			t.Fatalf("POST %s: code = %q", route, code)
		}
	}
	// Admin mutations are POST-only; GET must bounce the same way.
	for _, route := range []string{"/v1/admin/checkpoint", "/v1/admin/compact"} {
		status, body := get(t, ts.URL+route)
		if status != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status = %d", route, status)
		}
		if code := errCode(t, body); code != "method_not_allowed" {
			t.Fatalf("GET %s: code = %q", route, code)
		}
	}
}

// post issues a POST with an empty body and returns status plus decoded JSON.
func post(t *testing.T, rawURL string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(rawURL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("POST %s: non-JSON body: %v", rawURL, err)
	}
	return resp.StatusCode, body
}

// TestAdminRoutes drives the durability admin surface over a platform with a
// durable checkpoint store: two checkpoints establish a compaction floor,
// compaction reports a rewrite, and the recovery stats reflect all of it.
func TestAdminRoutes(t *testing.T) {
	p, err := core.Open(core.Options{Durability: core.DurabilityOptions{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ts := httptest.NewServer(serve.New(p, serve.Options{}).Handler())
	t.Cleanup(ts.Close)

	for round := 0; round < 2; round++ {
		spec := workload.SourceSpec{Name: "src", Count: 30, Offset: round * 5, Seed: int64(round + 1), RichFacts: 2}
		if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
			t.Fatal(err)
		}
		status, body := post(t, ts.URL+"/v1/admin/checkpoint")
		if status != http.StatusOK {
			t.Fatalf("checkpoint round %d: status = %d body = %v", round, status, body)
		}
		if body["durable"] != true || body["checkpoint_lsn"].(float64) <= 0 {
			t.Fatalf("checkpoint round %d: body = %v", round, body)
		}
	}

	status, body := post(t, ts.URL+"/v1/admin/compact")
	if status != http.StatusOK {
		t.Fatalf("compact: status = %d body = %v", status, body)
	}
	if body["ran"] != true || body["watermark"].(float64) <= 0 {
		t.Fatalf("compact did not run: %v", body)
	}

	status, body = get(t, ts.URL+"/v1/admin/recovery")
	if status != http.StatusOK {
		t.Fatalf("recovery: status = %d", status)
	}
	if body["durable"] != true {
		t.Fatalf("recovery stats not durable: %v", body)
	}
	if body["checkpoints"].(float64) != 2 {
		t.Fatalf("recovery checkpoints = %v, want 2", body["checkpoints"])
	}
	if body["compactions"].(float64) < 1 {
		t.Fatalf("recovery compactions = %v, want >= 1", body["compactions"])
	}
	if body["compaction_floor"].(float64) <= 0 {
		t.Fatalf("recovery floor = %v, want > 0", body["compaction_floor"])
	}
}

// TestAdminCheckpointVolatile: on a platform with no durable checkpoint
// store the route still succeeds, but reports durable:false.
func TestAdminCheckpointVolatile(t *testing.T) {
	_, ts := testServer(t)
	status, body := post(t, ts.URL+"/v1/admin/checkpoint")
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	if body["durable"] != false {
		t.Fatalf("volatile platform reported durable: %v", body)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, ts := testServer(t)
	status, body := get(t, ts.URL+"/v1/healthz")
	if status != http.StatusOK || body["status"] != "ok" || body["version"].(float64) <= 0 {
		t.Fatalf("healthz: status = %d body = %v", status, body)
	}
	status, body = get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: status = %d", status)
	}
	serving := body["serving"].(map[string]any)
	if serving["version"].(float64) <= 0 {
		t.Fatalf("stats serving version = %v", serving["version"])
	}
	if _, ok := body["platform"].(map[string]any); !ok {
		t.Fatal("stats missing platform section")
	}
}

func TestRequestTimeoutEnvelope(t *testing.T) {
	p, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// A timeout so small every request trips it: the 503 must still carry
	// the JSON envelope.
	ts := httptest.NewServer(serve.New(p, serve.Options{RequestTimeout: time.Nanosecond}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("timeout body is not JSON: %v", err)
	}
	env := body["error"].(map[string]any)
	if env["code"] != "timeout" {
		t.Fatalf("timeout code = %v", env["code"])
	}
}

// TestConcurrentQueriesUnderFeed drives concurrent mixed traffic through
// the server while a standing feed churns volatile facts and a streaming
// writer updates live entities — the full serving-under-ingestion path,
// meaningful chiefly under -race.
func TestConcurrentQueriesUnderFeed(t *testing.T) {
	p, ts := testServer(t)
	view := p.Live.Current()
	ids := view.ByType("human")
	name := view.GetShared(ids[0]).Name()

	stop := make(chan struct{})
	var ingestWG sync.WaitGroup
	feed, err := p.Feed(core.FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			churn := make([]*triple.Entity, 0, 8)
			for u := 0; u < 8; u++ {
				e := triple.NewEntity(triple.EntityID(fmt.Sprintf("src00:e%d", rng.Intn(80))))
				e.Add(triple.New("", "popularity", triple.Float(rng.Float64())).WithSource("src00", 0.9))
				churn = append(churn, e)
			}
			<-feed.Submit([]ingest.Delta{{Source: "src00", Volatile: churn}})
		}
	}()

	urls := []string{
		ts.URL + "/v1/query?q=" + url.QueryEscape(`entity(type="human") | rank() | limit(5) | attr("name")`),
		ts.URL + "/v1/query?q=" + url.QueryEscape(fmt.Sprintf(`entity(type="human", name=%q)`, name)),
		ts.URL + "/v1/entity?id=" + url.QueryEscape(string(ids[0])),
		ts.URL + "/v1/search?q=" + url.QueryEscape(name) + "&k=5",
		ts.URL + "/v1/stats",
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < 30; i++ {
				u := urls[(c+i)%len(urls)]
				resp, err := client.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Errorf("%s -> %d: %s", u, resp.StatusCode, body)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	ingestWG.Wait()
	_ = feed.Close()
	feed.Drain()
}

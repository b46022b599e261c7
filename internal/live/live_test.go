package live

import (
	"strings"
	"testing"

	"saga/internal/triple"
)

// mapResolver is a test EntityResolver over a fixed mention table.
type mapResolver map[string]triple.EntityID

func (m mapResolver) Resolve(mention, typeHint string) (triple.EntityID, float64, bool) {
	id, ok := m[strings.ToLower(mention)]
	return id, 0.9, ok
}

func stableWorld() []*triple.Entity {
	mk := func(id, typ, name string, facts map[string]triple.Value) *triple.Entity {
		e := triple.NewEntity(triple.EntityID(id))
		e.AddFact(triple.PredType, triple.String(typ))
		e.AddFact(triple.PredName, triple.String(name))
		for p, v := range facts {
			e.AddFact(p, v)
		}
		return e
	}
	return []*triple.Entity{
		mk("kg:GSW", "sports_team", "Golden State Warriors", map[string]triple.Value{"plays_in_city": triple.Ref("kg:SF")}),
		mk("kg:LAL", "sports_team", "Los Angeles Lakers", nil),
		mk("kg:SF", "city", "San Francisco", nil),
		mk("kg:CA", "country", "Canada", map[string]triple.Value{"head_of_state": triple.Ref("kg:JT")}),
		mk("kg:CHI", "city", "Chicago", map[string]triple.Value{"mayor": triple.Ref("kg:BJ")}),
		mk("kg:JT", "human", "Justin Trudeau", map[string]triple.Value{"spouse": triple.Ref("kg:SG")}),
		mk("kg:SG", "human", "Sophie Gregoire", map[string]triple.Value{"birth_place": triple.Ref("kg:MTL")}),
		mk("kg:BJ", "human", "Brandon Johnson", nil),
		mk("kg:MTL", "city", "Montreal", nil),
		mk("kg:TH", "human", "Tom Hanks", map[string]triple.Value{"spouse": triple.Ref("kg:RW")}),
		mk("kg:RW", "human", "Rita Wilson", map[string]triple.Value{"birth_place": triple.Ref("kg:HW")}),
		mk("kg:HW", "city", "Hollywood", nil),
	}
}

func liveWorld(t *testing.T) (*Constructor, *Store) {
	t.Helper()
	store := NewStore()
	c := &Constructor{Store: store, Resolver: mapResolver{
		"warriors": "kg:GSW", "golden state warriors": "kg:GSW",
		"lakers": "kg:LAL", "san francisco": "kg:SF",
	}}
	c.LoadStableView(stableWorld(), map[triple.EntityID]float64{"kg:GSW": 0.9})
	return c, store
}

func TestLiveConstructionLinksMentions(t *testing.T) {
	c, store := liveWorld(t)
	id, err := c.Consume(Event{
		Source: "sportsfeed", Type: "sports_game", ID: "game42",
		Facts: map[string]triple.Value{
			"home_score":  triple.Int(101),
			"away_score":  triple.Int(99),
			"game_status": triple.String("Q4 2:10"),
		},
		Mentions: map[string]Mention{
			"home_team": {Text: "Warriors", TypeHint: "sports_team"},
			"away_team": {Text: "Lakers", TypeHint: "sports_team"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	game := store.Get(id)
	if game == nil {
		t.Fatal("game not stored")
	}
	if got := game.First("home_team").Ref(); got != "kg:GSW" {
		t.Fatalf("home team = %s (mention not linked to stable graph)", got)
	}
	if got := game.First("home_score").Int64(); got != 101 {
		t.Fatalf("score = %d", got)
	}
	// Querying streaming data while reasoning over stable references: find
	// games whose home team is the stable Warriors entity.
	games := store.InRefs("home_team", "kg:GSW")
	if len(games) != 1 || games[0] != id {
		t.Fatalf("games by team = %v", games)
	}
}

func TestLiveUpdateOverwrites(t *testing.T) {
	c, store := liveWorld(t)
	ev := Event{Source: "sportsfeed", Type: "sports_game", ID: "g1",
		Facts: map[string]triple.Value{"home_score": triple.Int(10)}}
	id, _ := c.Consume(ev)
	ev.Facts["home_score"] = triple.Int(20)
	if _, err := c.Consume(ev); err != nil {
		t.Fatal(err)
	}
	scores := store.Get(id).Get("home_score")
	if len(scores) != 1 || scores[0].Int64() != 20 {
		t.Fatalf("scores = %v", scores)
	}
}

func TestLiveDeletion(t *testing.T) {
	c, store := liveWorld(t)
	id, _ := c.Consume(Event{Source: "s", Type: "flight", ID: "f1",
		Facts: map[string]triple.Value{"flight_status": triple.String("on time")}})
	if _, err := c.Consume(Event{Source: "s", ID: "f1", Deleted: true}); err != nil {
		t.Fatal(err)
	}
	if store.Get(id) != nil {
		t.Fatal("deleted event still live")
	}
}

// TestLoadStableViewDropsRemovedEntities: a reload replaces the stable view,
// so a stable entity the new view lacks leaves every index, while streaming
// entities stay.
func TestLoadStableViewDropsRemovedEntities(t *testing.T) {
	c, store := liveWorld(t)
	game, err := c.Consume(Event{Source: "sportsfeed", Type: "sports_game", ID: "g1",
		Mentions: map[string]Mention{"home_team": {Text: "Warriors"}}})
	if err != nil {
		t.Fatal(err)
	}
	var kept []*triple.Entity
	for _, e := range stableWorld() {
		if e.ID != "kg:LAL" {
			kept = append(kept, e)
		}
	}
	c.LoadStableView(kept, nil)

	if store.Get("kg:LAL") != nil || store.Len() != len(kept)+1 {
		t.Fatalf("reload kept the removed entity: Len = %d, want %d", store.Len(), len(kept)+1)
	}
	if ids := store.ByType("sports_team"); len(ids) != 1 || ids[0] != "kg:GSW" {
		t.Fatalf("sports teams after reload = %v", ids)
	}
	if hits := store.SearchText("Lakers", 3); len(hits) != 0 {
		t.Fatalf("search still hits the removed entity: %v", hits)
	}
	if store.Get(game) == nil {
		t.Fatal("reload deleted a streaming entity")
	}
}

func TestLiveUnresolvedMentionKeptAsLiteral(t *testing.T) {
	c, store := liveWorld(t)
	id, _ := c.Consume(Event{Source: "s", Type: "sports_game", ID: "g9",
		Mentions: map[string]Mention{"home_team": {Text: "Unknown United"}}})
	v := store.Get(id).First("home_team")
	if v.Kind() != triple.KindString || v.Str() != "Unknown United" {
		t.Fatalf("unresolved mention = %v", v)
	}
}

func TestEventValidation(t *testing.T) {
	c, _ := liveWorld(t)
	if _, err := c.Consume(Event{Type: "x", ID: "1"}); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := c.Consume(Event{Source: "s", Type: "x"}); err == nil {
		t.Fatal("missing id accepted")
	}
}

func newIntentWorld(t *testing.T) *IntentHandler {
	t.Helper()
	_, store := liveWorld(t)
	h := NewIntentHandler(store, nil)
	h.RegisterIntent("HeadOfState",
		Route{RequiredType: "country", Predicate: "head_of_state"},
		Route{RequiredType: "city", Predicate: "mayor"},
	)
	h.RegisterIntent("SpouseOf", Route{RequiredType: "human", Predicate: "spouse"})
	h.RegisterIntent("Birthplace", Route{RequiredType: "human", Predicate: "birth_place"})
	return h
}

func TestIntentRoutingBySemantics(t *testing.T) {
	h := newIntentWorld(t)
	// HeadOfState(Canada) → prime-minister-style route.
	ans, err := h.Execute(Intent{Name: "HeadOfState", Args: []string{"Canada"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Texts) != 1 || ans.Texts[0] != "Justin Trudeau" {
		t.Fatalf("Canada leader = %v", ans.Texts)
	}
	// HeadOfState(Chicago) → mayor route: same intent, different execution.
	ans, err = h.Execute(Intent{Name: "HeadOfState", Args: []string{"Chicago"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Texts) != 1 || ans.Texts[0] != "Brandon Johnson" {
		t.Fatalf("Chicago leader = %v", ans.Texts)
	}
	// No meaningful interpretation → error, not a wrong answer.
	if _, err := h.Execute(Intent{Name: "HeadOfState", Args: []string{"Justin Trudeau"}}); err == nil {
		t.Fatal("human accepted for HeadOfState")
	}
	if _, err := h.Execute(Intent{Name: "Unknown", Args: []string{"x"}}); err == nil {
		t.Fatal("unknown intent accepted")
	}
}

// TestMultiTurnContext reproduces the paper's Beyoncé/Tom Hanks/Rita Wilson
// conversation shape (§4.2) over our fixture entities.
func TestMultiTurnContext(t *testing.T) {
	h := newIntentWorld(t)
	s := h.NewSession()
	// Who is Justin Trudeau married to?
	a1, err := s.Handle(Intent{Name: "SpouseOf", Args: []string{"Justin Trudeau"}})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Texts[0] != "Sophie Gregoire" {
		t.Fatalf("turn 1 = %v", a1.Texts)
	}
	// How about Tom Hanks? (same intent, new argument)
	a2, err := s.Handle(Intent{Args: []string{"Tom Hanks"}})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Intent.Name != "SpouseOf" || a2.Texts[0] != "Rita Wilson" {
		t.Fatalf("turn 2 = %+v", a2)
	}
	// Where is she from? (new intent, argument from previous answer)
	a3, err := s.Handle(Intent{Name: "Birthplace", Args: []string{ArgPrevAnswer}})
	if err != nil {
		t.Fatal(err)
	}
	if a3.Texts[0] != "Hollywood" {
		t.Fatalf("turn 3 = %v", a3.Texts)
	}
	if len(s.History()) != 3 {
		t.Fatalf("history = %d", len(s.History()))
	}
}

func TestContextErrors(t *testing.T) {
	h := newIntentWorld(t)
	s := h.NewSession()
	if _, err := s.Handle(Intent{Args: []string{"x"}}); err == nil {
		t.Fatal("follow-up with no prior intent accepted")
	}
	if _, err := s.Handle(Intent{Name: "SpouseOf", Args: []string{ArgPrevAnswer}}); err == nil {
		t.Fatal("prev-answer binding with empty history accepted")
	}
}

func TestCurationQueue(t *testing.T) {
	_, store := liveWorld(t)
	q := NewQueue(
		RangeDetector("population", 1, 5e7),
		VandalismDetector(triple.PredName, "lol", "hacked"),
	)
	bad := triple.NewEntity("kg:BAD")
	bad.AddFact(triple.PredType, triple.String("city"))
	bad.AddFact(triple.PredName, triple.String("Totally Hacked City"))
	bad.AddFact("population", triple.Int(-5))
	store.Put(bad, 0)
	if n := q.Inspect(bad); n != 2 {
		t.Fatalf("quarantined = %d, want 2", n)
	}
	pending := q.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending = %v", pending)
	}
	// Block the vandalized name (hot fix on the live index).
	var nameFact triple.Triple
	for _, s := range pending {
		if s.Fact.Predicate == triple.PredName {
			nameFact = s.Fact
		}
	}
	if err := q.Decide(store, Decision{Kind: DecisionBlock, Entity: "kg:BAD", Fact: nameFact}); err != nil {
		t.Fatal(err)
	}
	if got := store.Get("kg:BAD").Name(); got != "" {
		t.Fatalf("blocked fact still served: %q", got)
	}
	// Edit the population.
	var popFact triple.Triple
	for _, s := range q.Pending() {
		if s.Fact.Predicate == "population" {
			popFact = s.Fact
		}
	}
	if err := q.Decide(store, Decision{Kind: DecisionEdit, Entity: "kg:BAD", Fact: popFact, NewValue: triple.Int(120000)}); err != nil {
		t.Fatal(err)
	}
	if got := store.Get("kg:BAD").First("population").Int64(); got != 120000 {
		t.Fatalf("edited population = %d", got)
	}
	if len(q.Pending()) != 0 {
		t.Fatalf("pending after decisions = %v", q.Pending())
	}
	// Decisions drain for stable construction.
	decisions := q.DrainDecisions()
	if len(decisions) != 2 {
		t.Fatalf("decisions = %d", len(decisions))
	}
	if len(q.DrainDecisions()) != 0 {
		t.Fatal("drain should clear")
	}
}

func TestCurationBlockEntity(t *testing.T) {
	_, store := liveWorld(t)
	q := NewQueue()
	if err := q.Decide(store, Decision{Kind: DecisionBlockEntity, Entity: "kg:GSW"}); err != nil {
		t.Fatal(err)
	}
	if store.Get("kg:GSW") != nil {
		t.Fatal("blocked entity still live")
	}
}

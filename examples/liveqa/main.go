// Liveqa: the live knowledge graph scenario (§4) — streaming sports scores
// linked against stable team entities, queried through intents with
// multi-turn context, plus a curation hot fix.
package main

import (
	"fmt"
	"log"

	"saga/internal/core"
	"saga/internal/live"
	"saga/internal/triple"
	"saga/internal/workload"
)

func main() {
	platform, err := core.Open(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Stable knowledge: teams and their cities.
	teams := []string{"Northfield Comets", "Lakewood Pilots", "Eastport Giants"}
	for i, e := range workload.TeamsGraph(teams) {
		e.Add(triple.New("", "plays_in_city", triple.Ref(triple.EntityID(fmt.Sprintf("kg:CITY%d", i)))).WithSource("sportsdb", 0.9))
		platform.KG.Graph.Put(e)
		platform.GraphReplica.Put(e)
		city := triple.NewEntity(triple.EntityID(fmt.Sprintf("kg:CITY%d", i)))
		city.Add(triple.New("", triple.PredType, triple.String("city")).WithSource("sportsdb", 0.9))
		city.Add(triple.New("", triple.PredName, triple.String(workload.CityName(i))).WithSource("sportsdb", 0.9))
		platform.KG.Graph.Put(city)
		platform.GraphReplica.Put(city)
	}
	platform.RefreshServing()
	platform.BuildNERD()

	// Stream score updates; mentions resolve to the stable teams.
	events := workload.StreamSpec{Games: 2, Updates: 12, Teams: teams, Seed: 7}.Events()
	for _, ev := range events {
		if _, err := platform.LiveConstructor.Consume(ev); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("live KG: %d entities after %d stream updates\n\n", platform.Live.Current().Len(), len(events))

	// Ad-hoc KGQ over streaming + stable data: current games of a team.
	res, err := platform.Query(`entity(type="sports_team", name="Northfield Comets") | in("home_team") | attr("game_status")`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Comets home game status:", res.Texts())

	// Intents with multi-turn context (the §4.2 conversation pattern).
	platform.Intents.RegisterIntent("PlaysIn",
		live.Route{RequiredType: "sports_team", Predicate: "plays_in_city"})
	session := platform.Intents.NewSession()
	a1, err := session.Handle(live.Intent{Name: "PlaysIn", Args: []string{"Northfield Comets"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Where do the Comets play? ->", a1.Texts)
	a2, err := session.Handle(live.Intent{Args: []string{"Lakewood Pilots"}}) // "How about the Pilots?"
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("How about the Pilots?    ->", a2.Texts)

	// Curation: quarantine a vandalized score and hot fix it.
	gameID := live.LiveID("sportsfeed", "game0")
	game := platform.Live.Current().GetShared(gameID)
	var scoreFact triple.Triple
	for _, t := range game.Triples {
		if t.Predicate == "home_score" {
			scoreFact = t
		}
	}
	if err := platform.Curation.Decide(platform.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: gameID, Fact: scoreFact, NewValue: triple.Int(42),
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter curation hot fix, home score = %d\n",
		platform.Live.Current().GetShared(gameID).First("home_score").Int64())
}

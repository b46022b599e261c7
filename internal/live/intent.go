package live

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"saga/internal/triple"
)

// Intent is an annotated natural-language query: a target intent with
// arguments, as produced by upstream NL understanding (§4.2). Arguments are
// entity mentions or context references.
type Intent struct {
	// Name is the intent ("HeadOfState", "SpouseOf", "Birthplace").
	Name string
	// Args are the argument mentions. The context sentinels ArgPrevAnswer
	// and ArgPrevArg bind from the conversation context graph.
	Args []string
}

// Context sentinels usable as intent arguments.
const (
	// ArgPrevAnswer binds the previous turn's answer entity ("Where is she
	// from?" after an answer of Rita Wilson).
	ArgPrevAnswer = "<prev_answer>"
	// ArgPrevArg binds the previous turn's argument entity.
	ArgPrevArg = "<prev_arg>"
)

// Route is one way to execute an intent: follow Predicate from the argument
// entity, admissible only when the argument has RequiredType. Intent routing
// picks the route whose semantics match the argument — HeadOfState(Canada)
// follows head_of_state because Canada is a country, HeadOfState(Chicago)
// follows mayor because Chicago is a city; the other interpretation is
// meaningless in the KG (§4.2).
type Route struct {
	// RequiredType gates the route on the argument entity's type.
	RequiredType string
	// Predicate is the reference predicate to follow.
	Predicate string
}

// IntentHandler routes intents to KGQ-style executions over the live store
// and maintains per-session context graphs for multi-turn interactions.
// Intent routes compile once at registration into immutable plans; each
// Execute runs its plan against one versioned store snapshot, so a turn's
// reads are mutually consistent and never contend with ingestion.
type IntentHandler struct {
	Store *Store
	// Resolver resolves argument mentions to entities.
	Resolver EntityResolver

	mu     sync.RWMutex
	routes map[string]*routePlan
}

// routePlan is an intent's compiled routing table: the admissible routes in
// trial order, frozen at registration. Plans are immutable — registration
// replaces the plan wholesale — so Execute reads them without holding the
// handler's lock.
type routePlan struct {
	routes []Route
}

// NewIntentHandler constructs a handler.
func NewIntentHandler(store *Store, resolver EntityResolver) *IntentHandler {
	return &IntentHandler{Store: store, Resolver: resolver, routes: make(map[string]*routePlan)}
}

// RegisterIntent adds routes for an intent name, recompiling the intent's
// plan. Routes are tried in registration order; the first whose type gate
// admits the argument wins.
func (h *IntentHandler) RegisterIntent(name string, routes ...Route) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var prev []Route
	if p := h.routes[name]; p != nil {
		prev = p.routes
	}
	compiled := make([]Route, 0, len(prev)+len(routes))
	compiled = append(compiled, prev...)
	compiled = append(compiled, routes...)
	h.routes[name] = &routePlan{routes: compiled}
}

// plan returns the intent's compiled route plan, or nil when unregistered.
func (h *IntentHandler) plan(name string) *routePlan {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.routes[name]
}

// Answer is one intent execution result.
type Answer struct {
	// Intent echoes the routed intent after context binding.
	Intent Intent
	// ArgEntity is the resolved argument entity.
	ArgEntity triple.EntityID
	// Entities are the answer entities (resolved through the route).
	Entities []triple.EntityID
	// Texts are the display names of the answer entities, or literal values.
	Texts []string
}

// Session is a multi-turn conversation: a context graph of previous intents,
// arguments, and answers that follow-up queries reference (§4.2).
type Session struct {
	handler *IntentHandler
	// history holds prior turns, most recent last.
	history []Answer
}

// NewSession opens a conversation context against the handler.
func (h *IntentHandler) NewSession() *Session { return &Session{handler: h} }

// History returns the turns answered so far.
func (s *Session) History() []Answer { return s.history }

// Handle executes one intent within the session, binding context sentinels
// from the context graph: ArgPrevAnswer binds the previous answer entity and
// ArgPrevArg the previous argument. An intent with an empty Name reuses the
// previous turn's intent with the new arguments ("How about Tom Hanks?").
func (s *Session) Handle(intent Intent) (Answer, error) {
	if intent.Name == "" {
		if len(s.history) == 0 {
			return Answer{}, fmt.Errorf("live: follow-up with no prior intent")
		}
		intent.Name = s.history[len(s.history)-1].Intent.Name
	}
	bound := make([]string, len(intent.Args))
	for i, arg := range intent.Args {
		switch arg {
		case ArgPrevAnswer:
			if len(s.history) == 0 || len(s.history[len(s.history)-1].Entities) == 0 {
				return Answer{}, fmt.Errorf("live: no previous answer to bind")
			}
			prev := s.history[len(s.history)-1].Entities[0]
			bound[i] = string(prev)
		case ArgPrevArg:
			if len(s.history) == 0 {
				return Answer{}, fmt.Errorf("live: no previous argument to bind")
			}
			bound[i] = string(s.history[len(s.history)-1].ArgEntity)
		default:
			bound[i] = arg
		}
	}
	intent.Args = bound
	ans, err := s.handler.Execute(intent)
	if err != nil {
		return Answer{}, err
	}
	s.history = append(s.history, ans)
	return ans, nil
}

// Execute routes and runs one intent with already-bound arguments. All
// reads for the turn — argument resolution, route gating, answer naming —
// run against one store snapshot, so the answer reflects a single KG
// version even under concurrent ingestion.
func (h *IntentHandler) Execute(intent Intent) (Answer, error) {
	plan := h.plan(intent.Name)
	if plan == nil {
		return Answer{}, fmt.Errorf("live: unknown intent %q", intent.Name)
	}
	if len(intent.Args) == 0 {
		return Answer{}, fmt.Errorf("live: intent %s has no argument", intent.Name)
	}
	v := h.Store.Current()
	argEnt, err := h.resolveArg(v, intent.Args[0])
	if err != nil {
		return Answer{}, fmt.Errorf("live: intent %s: %w", intent.Name, err)
	}
	ent := v.GetShared(argEnt)
	if ent == nil {
		return Answer{}, fmt.Errorf("live: intent %s: entity %s not in live KG", intent.Name, argEnt)
	}
	types := ent.Types()
	var route *Route
	for i := range plan.routes {
		if plan.routes[i].RequiredType == "" || containsStr(types, plan.routes[i].RequiredType) {
			route = &plan.routes[i]
			break
		}
	}
	if route == nil {
		return Answer{}, fmt.Errorf("live: intent %s has no meaningful interpretation for %s (types %v)",
			intent.Name, argEnt, types)
	}
	ans := Answer{Intent: intent, ArgEntity: argEnt}
	for _, val := range ent.Get(route.Predicate) {
		if val.IsRef() {
			ans.Entities = append(ans.Entities, val.Ref())
			if target := v.GetShared(val.Ref()); target != nil && target.Name() != "" {
				ans.Texts = append(ans.Texts, target.Name())
			} else {
				ans.Texts = append(ans.Texts, string(val.Ref()))
			}
		} else {
			ans.Texts = append(ans.Texts, val.Text())
		}
	}
	sort.Strings(ans.Texts)
	return ans, nil
}

// resolveArg maps an argument mention to a live-KG entity within one read
// view: entity IDs pass through; otherwise the resolver, then exact name
// lookup.
func (h *IntentHandler) resolveArg(v *Snapshot, arg string) (triple.EntityID, error) {
	if strings.Contains(arg, ":") && v.GetShared(triple.EntityID(arg)) != nil {
		return triple.EntityID(arg), nil
	}
	if h.Resolver != nil {
		if id, _, ok := h.Resolver.Resolve(arg, ""); ok {
			return id, nil
		}
	}
	if ids := v.ByAttr(triple.PredName, arg); len(ids) > 0 {
		return ids[0], nil
	}
	return "", fmt.Errorf("cannot resolve argument %q", arg)
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// Package serve implements Saga's production serving tier (§4): a
// constructor-injected HTTP server over an assembled platform, exposing the
// live knowledge graph on versioned /v1 routes. Reads run against immutable
// snapshots of the platform's one live store, KGQ text compiles once through
// the server engine's plan cache, and results are cached per (plan, store
// version) so hot queries invalidate exactly when ingestion advances the KG.
//
// Routes:
//
//	GET  /v1/query?q=<KGQ>         execute a live graph query
//	GET  /v1/entity?id=<id>        retrieve an entity payload
//	GET  /v1/search?q=<text>&k=<n> ranked text search (k defaults to 10)
//	GET  /v1/stats                 platform + serving statistics
//	GET  /v1/healthz               liveness and current store version
//	POST /v1/admin/checkpoint      take a checkpoint (compacts the log)
//	GET  /v1/admin/recovery        recovery and checkpoint stats
//
// Errors use a structured envelope: {"error": {"code": "...", "message":
// "..."}} with codes bad_query, bad_request, not_found, internal, and
// method_not_allowed. Admin routes run under the same request timeout as
// reads; a checkpoint that outlives it keeps running — the timeout bounds
// the response, not the operation.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"saga/internal/core"
	"saga/internal/live/kgq"
	"saga/internal/triple"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address; default 127.0.0.1:8080.
	Addr string
	// RequestTimeout bounds each request's handling time; default 5s.
	RequestTimeout time.Duration
	// ReadHeaderTimeout bounds how long a client may dribble request
	// headers; default 5s.
	ReadHeaderTimeout time.Duration
}

// Server serves the live KG over HTTP. Construct with New; the zero value
// is not usable.
type Server struct {
	platform *core.Platform
	// engine serves /v1/query over p.Live. It is the server's own, not the
	// platform's LiveEngine, so /v1/stats cache counters count HTTP traffic
	// only.
	engine  *kgq.Engine
	opts    Options
	handler http.Handler
	srv     *http.Server
}

// New builds a server over an assembled platform.
func New(p *core.Platform, opts Options) *Server {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:8080"
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.ReadHeaderTimeout <= 0 {
		opts.ReadHeaderTimeout = 5 * time.Second
	}
	s := &Server{platform: p, engine: kgq.NewEngine(p.Live), opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/entity", s.handleEntity)
	mux.HandleFunc("/v1/search", s.handleSearch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/admin/checkpoint", s.handleAdminCheckpoint)
	mux.HandleFunc("/v1/admin/recovery", s.handleAdminRecovery)
	s.handler = http.TimeoutHandler(mux, opts.RequestTimeout,
		`{"error":{"code":"timeout","message":"request exceeded the server's request timeout"}}`)
	return s
}

// Handler returns the server's HTTP handler (method checks, envelopes, and
// the request timeout included) for embedding in tests and benchmarks.
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves until the listener fails or Shutdown is called.
func (s *Server) ListenAndServe() error {
	s.srv = &http.Server{
		Addr:              s.opts.Addr,
		Handler:           s.handler,
		ReadHeaderTimeout: s.opts.ReadHeaderTimeout,
	}
	err := s.srv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops a running server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// errorEnvelope is the structured error body every non-2xx response carries.
type errorEnvelope struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: errorInfo{Code: code, Message: msg}})
}

// checkRequest enforces a route's method and parameter contract: exactly the
// given method (405 with Allow otherwise), and no unknown query parameters
// (400) — a misspelled parameter fails loudly instead of silently serving the
// unfiltered route. It returns the parsed query parameters, so handlers parse
// the query string once.
func checkRequest(w http.ResponseWriter, r *http.Request, method string, params ...string) (url.Values, bool) {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s is not allowed; use %s", r.Method, method))
		return nil, false
	}
	query := r.URL.Query()
	for name := range query {
		if !slices.Contains(params, name) {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("unknown query parameter %q", name))
			return nil, false
		}
	}
	return query, true
}

// queryResponse is /v1/query's success payload.
type queryResponse struct {
	IDs     []triple.EntityID `json:"ids"`
	Values  []string          `json:"values"`
	Version uint64            `json:"version"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, ok := checkRequest(w, r, http.MethodGet, "q")
	if !ok {
		return
	}
	q := query.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing required parameter q")
		return
	}
	view := s.platform.Live.Serving()
	plan, err := s.engine.PlanText(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	res, err := s.engine.ExecuteOn(plan, view)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	ids := res.IDs
	if ids == nil {
		ids = []triple.EntityID{}
	}
	writeJSON(w, http.StatusOK, queryResponse{IDs: ids, Values: res.Texts(), Version: view.Version()})
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	query, ok := checkRequest(w, r, http.MethodGet, "id")
	if !ok {
		return
	}
	id := query.Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing required parameter id")
		return
	}
	// Shared record: stored entities are immutable after insert, so the
	// encoder reads it without a clone.
	e := s.platform.Live.Serving().GetShared(triple.EntityID(id))
	if e == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("entity %q is not in the live KG", id))
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// searchResponse is /v1/search's success payload.
type searchResponse struct {
	Hits    []searchHit `json:"hits"`
	Version uint64      `json:"version"`
}

type searchHit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	query, ok := checkRequest(w, r, http.MethodGet, "q", "k")
	if !ok {
		return
	}
	q := query.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing required parameter q")
		return
	}
	k := 10
	if ks := query.Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "parameter k must be a positive integer")
			return
		}
		k = n
	}
	view := s.platform.Live.Serving()
	hits := view.SearchText(q, k)
	out := searchResponse{Hits: make([]searchHit, len(hits)), Version: view.Version()}
	for i, h := range hits {
		out.Hits[i] = searchHit{ID: h.ID, Score: h.Score}
	}
	writeJSON(w, http.StatusOK, out)
}

// ServingStats reports the serving tier's own counters next to platform
// statistics on /v1/stats.
type ServingStats struct {
	// Version is the live store's current version.
	Version uint64 `json:"version"`
	// PlanCacheLen is the number of compiled plans cached.
	PlanCacheLen int `json:"plan_cache_len"`
	// ResultHits / ResultMisses count result-cache traffic.
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
}

type statsResponse struct {
	Platform core.Stats   `json:"platform"`
	Serving  ServingStats `json:"serving"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if _, ok := checkRequest(w, r, http.MethodGet); !ok {
		return
	}
	hits, misses := s.engine.CacheStats()
	writeJSON(w, http.StatusOK, statsResponse{Platform: s.platform.Stats(), Serving: ServingStats{
		Version:      s.platform.Live.Version(),
		PlanCacheLen: s.engine.Plans.Len(),
		ResultHits:   hits,
		ResultMisses: misses,
	}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if _, ok := checkRequest(w, r, http.MethodGet); !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "version": s.platform.Live.Version()})
}

// checkpointResponse is /v1/admin/checkpoint's success payload.
type checkpointResponse struct {
	// Durable reports whether the checkpoint was persisted (false on a
	// platform whose log is volatile).
	Durable bool `json:"durable"`
	// CheckpointLSN is the watermark of the newest checkpoint.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

func (s *Server) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if _, ok := checkRequest(w, r, http.MethodPost); !ok {
		return
	}
	if _, err := s.platform.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	st := s.platform.DurabilityStats()
	writeJSON(w, http.StatusOK, checkpointResponse{
		Durable:       st.Durable,
		CheckpointLSN: st.LastCheckpointLSN,
	})
}

func (s *Server) handleAdminRecovery(w http.ResponseWriter, r *http.Request) {
	if _, ok := checkRequest(w, r, http.MethodGet); !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.platform.DurabilityStats())
}

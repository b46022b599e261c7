package layers

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"saga/bench/gen"
	"saga/internal/live/kgq"
	"saga/internal/serve"
	"saga/internal/triple"
)

// NewHandler builds the production serving tier's HTTP handler (routes,
// envelopes and the request timeout) over the platform.
func NewHandler(pl *Platform) http.Handler {
	return serve.New(pl.p, serve.Options{}).Handler()
}

// nullWriter is a ResponseWriter that keeps nothing, so a handler replay
// measures the handler and not a recorder.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// HandlerReplay is one single-goroutine pass of a read sequence through a
// fresh serving tier, with no HTTP around it.
type HandlerReplay struct {
	ByClass [gen.Classes]Measure
	// Envelope is the same number of GET /v1/healthz: what the mux, the
	// timeout handler (a goroutine, a timer and a buffered body per request)
	// and the response envelope cost a request that does next to nothing.
	Envelope Measure
	// Allocs and Bytes are heap allocations per request over the pass,
	// counted for the whole process; nothing else runs during a replay.
	Allocs, Bytes float64
	Failed        int // responses that were not 200
}

// ReplayHandler calls the handler of a fresh server for each read in order.
func ReplayHandler(pl *Platform, reads []gen.Request) HandlerReplay {
	h := NewHandler(pl)
	reqs := make([]*http.Request, len(reads))
	for i, r := range reads {
		reqs[i] = httptest.NewRequest(http.MethodGet, r.Path, nil)
	}
	var (
		out           HandlerReplay
		before, after runtime.MemStats
		w             = &nullWriter{h: make(http.Header)}
	)
	runtime.ReadMemStats(&before)
	for i, r := range reads {
		clear(w.h)
		w.status = http.StatusOK
		t := time.Now()
		h.ServeHTTP(w, reqs[i])
		out.ByClass[r.Class].Elapsed += time.Since(t)
		out.ByClass[r.Class].Ops++
		if w.status != http.StatusOK {
			out.Failed++
		}
	}
	runtime.ReadMemStats(&after)
	if n := float64(len(reads)); n > 0 {
		out.Allocs = float64(after.Mallocs-before.Mallocs) / n
		out.Bytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	health := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	for range reads {
		clear(w.h)
		w.status = http.StatusOK
		t := time.Now()
		h.ServeHTTP(w, health)
		out.Envelope.Elapsed += time.Since(t)
		out.Envelope.Ops++
		if w.status != http.StatusOK {
			out.Failed++
		}
	}
	return out
}

// PathReplay is the same read sequence taken through the layers under the
// handler, one public call at a time, on a fresh query engine: what the
// handler's time is made of.
type PathReplay struct {
	// Plan is PlanText (parse and plan on a miss, the cache on a hit),
	// Snapshot the live store's Serving view, Exec the plan's execution, the
	// entity read or the text search, Encode the JSON encoding of the
	// response body.
	Plan, Snapshot, Exec, Encode Measure
	// ByClass is the sum of the four parts per request class.
	ByClass [gen.Classes]Measure
}

// The response bodies below mirror internal/serve's unexported ones field by
// field, so that encoding them costs what the handler's encoding costs.
type queryBody struct {
	IDs     []triple.EntityID `json:"ids"`
	Values  []string          `json:"values"`
	Version uint64            `json:"version"`
}

type searchHit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type searchBody struct {
	Hits    []searchHit `json:"hits"`
	Version uint64      `json:"version"`
}

// ReplayPath takes each read through PlanText, Serving, ExecuteOn (or the
// entity read, or the search) and the JSON encoder.
func ReplayPath(pl *Platform, reads []gen.Request) (PathReplay, error) {
	var out PathReplay
	eng := kgq.NewEngine(pl.p.Live)
	enc := json.NewEncoder(io.Discard)
	timed := func(m *Measure, class gen.Class, fn func()) {
		t := time.Now()
		fn()
		d := time.Since(t)
		m.Elapsed += d
		m.Ops++
		out.ByClass[class].Elapsed += d
	}
	for _, r := range reads {
		out.ByClass[r.Class].Ops++
		var (
			body any
			err  error
		)
		switch r.Class {
		case gen.QueryHot, gen.QueryTail:
			var plan *kgq.Plan
			timed(&out.Plan, r.Class, func() { plan, err = eng.PlanText(r.Text) })
			if err != nil {
				return out, err
			}
			view := pl.p.Live.Serving()
			timed(&out.Snapshot, r.Class, func() { view = pl.p.Live.Serving() })
			var res kgq.Result
			timed(&out.Exec, r.Class, func() { res, err = eng.ExecuteOn(plan, view) })
			if err != nil {
				return out, err
			}
			timed(&out.Encode, r.Class, func() {
				ids := res.IDs
				if ids == nil {
					ids = []triple.EntityID{}
				}
				body = queryBody{IDs: ids, Values: res.Texts(), Version: view.Version()}
				err = enc.Encode(body)
			})
		case gen.EntityGet:
			view := pl.p.Live.Serving()
			timed(&out.Snapshot, r.Class, func() { view = pl.p.Live.Serving() })
			var e *triple.Entity
			timed(&out.Exec, r.Class, func() { e = view.GetShared(triple.EntityID(r.ID)) })
			timed(&out.Encode, r.Class, func() { err = enc.Encode(e) })
		case gen.Search:
			view := pl.p.Live.Serving()
			timed(&out.Snapshot, r.Class, func() { view = pl.p.Live.Serving() })
			var sb searchBody
			timed(&out.Exec, r.Class, func() {
				hits := view.SearchText(r.Text, 5)
				sb = searchBody{Hits: make([]searchHit, len(hits)), Version: view.Version()}
				for i, h := range hits {
					sb.Hits[i] = searchHit{ID: h.ID, Score: h.Score}
				}
			})
			timed(&out.Encode, r.Class, func() { err = enc.Encode(sb) })
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

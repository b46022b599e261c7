package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"saga/bench/gen"
)

// spanHeader carries the client span's id to the server-side span, so the
// handler span can name the request span as its parent.
const spanHeader = "X-Bench-Span"

// readSample is one read as the load generator saw it.
type readSample struct {
	class gen.Class
	ok    bool    // the response passed its checks
	seq   int     // position in the schedule
	latMS float64 // completion minus the time the request was due
	late  float64 // ms the generator sent it after it was due
}

// readLoad issues the read mix over a fixed number of connections. All
// connections share one request list; a request's position in the schedule
// picks its entry, so a seed fixes the whole traffic.
type readLoad struct {
	base   string
	reqs   []gen.Request
	conns  int
	tracer *Tracer // nil: no request spans, no span header

	clients []*http.Client
	// first holds the hash of the first body seen per request-list entry;
	// while the store is quiescent every later body must hash the same.
	first []atomic.Uint64

	mu       sync.Mutex
	failures []string // first few failure descriptions
	failed   atomic.Int64
	// regressed counts responses whose store version was lower than an
	// earlier response's on the same connection.
	regressed atomic.Int64
}

// versionRegressionFails says whether such a response is a failed operation.
// It is off because at the commit that defined the benchmark it happens a
// few times a churn_fresh run: live.Store.Serving lets a republisher that
// captured its snapshot earlier store it over a newer one (README.md,
// Findings), and a workload must not fail at the commit that defines it. The
// fix to live.Store turns this on.
const versionRegressionFails = false

func newReadLoad(base string, reqs []gen.Request, conns int) *readLoad {
	l := &readLoad{base: base, reqs: reqs, conns: conns, first: make([]atomic.Uint64, len(reqs))}
	for c := 0; c < conns; c++ {
		l.clients = append(l.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return l
}

func (l *readLoad) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// forget drops the remembered first bodies: after a write the store's
// answers may change, and the next quiescent window learns them again.
func (l *readLoad) forget() {
	for i := range l.first {
		l.first[i].Store(0)
	}
}

func (l *readLoad) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// conn is one connection's state across requests.
type conn struct {
	client  *http.Client
	buf     bytes.Buffer
	version uint64 // highest store version a response on this connection carried
}

// versioned is the part of a query or search body the write-window check
// reads; pointers tell an absent field from a zero one.
type versioned struct {
	IDs     *[]string          `json:"ids"`
	Values  *[]string          `json:"values"`
	Hits    *[]json.RawMessage `json:"hits"`
	Version *uint64            `json:"version"`
}

// do issues request i of the list on connection c and checks the response.
// While the store is quiescent the check is byte identity with the first
// response for the same request; beside writes it is status, JSON shape and
// entity id, and store versions that go back on one connection are counted.
func (l *readLoad) do(c *conn, i int, quiescent bool, spanID uint64) (ok bool, sent, done time.Time) {
	r := l.reqs[i]
	req, err := http.NewRequest(http.MethodGet, l.base+r.Path, nil)
	if err != nil {
		l.fail("build %s: %v", r.Path, err)
		return false, sent, done
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	sent = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		l.fail("GET %s: %v", r.Path, err)
		return false, sent, time.Now()
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	done = time.Now()
	body := c.buf.Bytes()
	switch {
	case err != nil:
		l.fail("read %s: %v", r.Path, err)
	case resp.StatusCode != http.StatusOK:
		l.fail("GET %s: status %d: %s", r.Path, resp.StatusCode, bytes.TrimSpace(body))
	case r.Class == gen.EntityGet && !bytes.HasPrefix(body, []byte(`{"id":"`+r.ID+`"`)):
		l.fail("GET %s: payload is not entity %s", r.Path, r.ID)
	case quiescent:
		h := fnv.New64a()
		h.Write(body)
		sum := h.Sum64() | 1 // 0 means not seen yet
		if !l.first[i].CompareAndSwap(0, sum) && l.first[i].Load() != sum {
			l.fail("GET %s: body differs from the first response on a quiescent store", r.Path)
		} else {
			return true, sent, done
		}
	case r.Class == gen.EntityGet:
		return true, sent, done
	default:
		var v versioned
		if err := json.Unmarshal(body, &v); err != nil {
			l.fail("GET %s: %v", r.Path, err)
			break
		}
		shape := v.IDs != nil && v.Values != nil
		if r.Class == gen.Search {
			shape = v.Hits != nil
		}
		switch {
		case !shape || v.Version == nil:
			l.fail("GET %s: body misses fields: %s", r.Path, bytes.TrimSpace(body))
		default:
			if *v.Version < c.version {
				l.regressed.Add(1)
				if versionRegressionFails {
					l.fail("GET %s: store version %d after %d on one connection", r.Path, *v.Version, c.version)
					break
				}
			}
			c.version = max(c.version, *v.Version)
			return true, sent, done
		}
	}
	return false, sent, done
}

// openLoop sends reads on a fixed schedule for the duration: request k is
// due at start + k/rate, connection k mod conns sends it, and its latency
// counts from the due time, so a stall charges the requests that had to wait
// behind it. A connection sends one request at a time; when it falls behind
// it sends the overdue requests back to back. The schedule walks the request
// list from its head, the stretch set-up and the closed loop have warmed.
func (l *readLoad) openLoop(rate float64, dur time.Duration, quiescent bool) []readSample {
	per := make([][]readSample, l.conns)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for ci := 0; ci < l.conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &conn{client: l.clients[ci]}
			for k := ci; ; k += l.conns {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if due.Sub(start) >= dur {
					return
				}
				waitUntil(due)
				id := l.tracer.ID()
				i := k % len(l.reqs)
				ok, sent, done := l.do(c, i, quiescent, id)
				class := l.reqs[i].Class
				l.tracer.Record("load."+class.String(), id, 0, id, sent, done, 0)
				per[ci] = append(per[ci], readSample{
					class: class, ok: ok, seq: k,
					latMS: float64(done.Sub(due)) / 1e6,
					late:  max(0, float64(sent.Sub(due))/1e6),
				})
			}
		}(ci)
	}
	wg.Wait()
	return mergeBySeq(per)
}

// spinMargin is how long before a due time the generator stops sleeping and
// spins: the kernel's default timer slack (50us) plus the wake-up, as
// measured on the box the benchmark was defined on.
const spinMargin = 80 * time.Microsecond

// waitUntil returns at the due time. time.Sleep cannot do it: a Go timer that
// expires while the thread sits in the network poller is rounded up to a
// millisecond, ten times the latency being measured. nanosleep wakes within
// the timer slack, and a spin of some 15us covers the rest.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early return only lengthens the spin
	}
	for time.Now().Before(due) {
	}
}

// closedUnit is how many back-to-back reads of one connection the closed loop
// times as one unit.
const closedUnit = 25

// closedLoop has every connection send its next read as soon as the last one
// completed, for the duration. It returns the reads completed, the time they
// took, and the duration in seconds of every full unit of closedUnit
// consecutive reads of one connection: a unit lasts a millisecond or two, so
// a stall of the box falls into a few units and not into the slice's count.
func (l *readLoad) closedLoop(dur time.Duration, quiescent bool) (int, time.Duration, []float64) {
	var total atomic.Int64
	units := make([][]float64, l.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < l.conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &conn{client: l.clients[ci]}
			unitStart, n := start, 0
			for k := ci; time.Since(start) < dur; k += l.conns {
				id := l.tracer.ID()
				i := k % len(l.reqs)
				_, sent, done := l.do(c, i, quiescent, id)
				l.tracer.Record("load."+l.reqs[i].Class.String(), id, 0, id, sent, done, 0)
				total.Add(1)
				if n++; n%closedUnit == 0 {
					now := time.Now()
					units[ci] = append(units[ci], now.Sub(unitStart).Seconds())
					unitStart = now
				}
			}
		}(ci)
	}
	wg.Wait()
	var all []float64
	for _, u := range units {
		all = append(all, u...)
	}
	return int(total.Load()), time.Since(start), all
}

// mergeBySeq interleaves the connections' samples back into schedule order.
func mergeBySeq(per [][]readSample) []readSample {
	n := 0
	for _, p := range per {
		n += len(p)
	}
	out := make([]readSample, 0, n)
	idx := make([]int, len(per))
	for len(out) < n {
		best := -1
		for c := range per {
			if idx[c] < len(per[c]) && (best < 0 || per[c][idx[c]].seq < per[best][idx[best]].seq) {
				best = c
			}
		}
		out = append(out, per[best][idx[best]])
		idx[best]++
	}
	return out
}

// spanMiddleware records a server-side span around the handler for requests
// that carry a span header; requests without one pass straight through.
func spanMiddleware(t *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.Record("serve.handler_"+routeOf(r.URL.Path), t.ID(), parent, parent, start, time.Now(), 0)
	})
}

func routeOf(path string) string {
	switch path {
	case "/v1/query":
		return "query"
	case "/v1/entity":
		return "entity"
	case "/v1/search":
		return "search"
	}
	return "other"
}

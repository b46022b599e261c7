package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"saga/bench/gen"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose
	}
	if got, err := percentile(v, 0.5); err != nil || got != 50 {
		t.Errorf("p50 of 1..100 = %v, %v", got, err)
	}
	if got, err := percentile(v, 0.89); err != nil || got != 89 {
		t.Errorf("p89 of 1..100 = %v, %v: 11 samples lie beyond it", got, err)
	}
	if got, err := percentile(v, 0.90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v: exactly 10 samples lie beyond it", got, err)
	}
	if _, err := percentile(v, 0.91); err == nil {
		t.Error("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(v[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
	if v[0] != 100 {
		t.Error("percentile reordered its argument")
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.75: 40, 1: 50, 0.125: 15} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median(4,1,2,3) = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{Name: "grandchild", ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if id := tr.ID(); id != 0 {
		t.Errorf("nil tracer allocated id %d", id)
	}
	tr.Record("x", 1, 0, 0, time.Now(), time.Now(), 0)
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("nil tracer holds %d spans", n)
	}
}

// TestOpenLoopTimesFromDueTime stalls one response and checks that the
// requests scheduled behind it on the same connection are charged the wait,
// and that the generator reports how late it sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 120 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"ids":[],"values":[],"version":1}`)) //nolint:errcheck
	}))
	defer srv.Close()
	reqs := []gen.Request{{Class: gen.QueryHot, Path: "/v1/query?q=x"}}
	l := newReadLoad(srv.URL, reqs, 1)
	defer l.close()
	samples := l.openLoop(100, 400*time.Millisecond, true) // one request every 10ms
	if len(samples) != 40 {
		t.Fatalf("%d requests sent, the schedule holds 40", len(samples))
	}
	if l.failed.Load() != 0 {
		t.Fatalf("requests failed: %v", l.failures)
	}
	// Request 4 (0-based) stalls; request 5 was due 10ms later and waited
	// about stall-10ms before it could be sent, request 6 about stall-20ms.
	// Only the stall is certain: a busy box adds to every figure, and this
	// one stalls for tens of milliseconds at a time, so the upper limits only
	// tell a generator that charges the stall from one that never recovers.
	for k, wantLate := range map[int]float64{5: 110, 6: 100, 9: 70} {
		s := samples[k]
		if s.late < wantLate-5 || s.late > wantLate+300 {
			t.Errorf("request %d was sent %.1fms late, want about %.0fms", k, s.late, wantLate)
		}
		if s.latMS < s.late {
			t.Errorf("request %d: latency %.1fms does not include its %.1fms wait", k, s.latMS, s.late)
		}
	}
	if samples[2].late > 300 || samples[2].latMS > 300 {
		t.Errorf("request 2 ran before the stall but shows late %.1fms, latency %.1fms", samples[2].late, samples[2].latMS)
	}
	if last := samples[39]; last.late > 300 {
		t.Errorf("the generator never caught up: last request %.1fms late", last.late)
	}
}

func TestQuiescentReadsMustRepeat(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) > 3 {
			w.Write([]byte(`{"ids":["kg:2"],"values":[],"version":2}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"ids":["kg:1"],"values":[],"version":1}`)) //nolint:errcheck
	}))
	defer srv.Close()
	l := newReadLoad(srv.URL, []gen.Request{{Class: gen.QueryHot, Path: "/v1/query?q=x"}}, 1)
	defer l.close()
	c := &conn{client: l.clients[0]}
	for i := 0; i < 3; i++ {
		if ok, _, _ := l.do(c, 0, true, 0); !ok {
			t.Fatalf("read %d of an unchanged body failed: %v", i, l.failures)
		}
	}
	if ok, _, _ := l.do(c, 0, true, 0); ok {
		t.Fatal("a changed body on a quiescent store must fail")
	}
	l.forget()
	if ok, _, _ := l.do(c, 0, true, 0); !ok {
		t.Fatal("after forget the next body is the new first one")
	}
	if ok, _, _ := l.do(c, 0, false, 0); !ok {
		t.Fatalf("beside writes a well-formed body passes: %v", l.failures)
	}
}

// TestClosedLoopUnits checks that the closed loop cuts every connection's
// reads into full units of closedUnit and times each of them.
func TestClosedLoopUnits(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ids":[],"values":[],"version":1}`)) //nolint:errcheck
	}))
	defer srv.Close()
	l := newReadLoad(srv.URL, []gen.Request{{Class: gen.QueryHot, Path: "/v1/query?q=x"}}, 2)
	defer l.close()
	n, d, units := l.closedLoop(100*time.Millisecond, true)
	if l.failed.Load() != 0 {
		t.Fatalf("requests failed: %v", l.failures)
	}
	// Each connection leaves at most one unit unfinished.
	if lo, hi := n/closedUnit-2, n/closedUnit; len(units) < lo || len(units) > hi || len(units) == 0 {
		t.Fatalf("%d reads gave %d units of %d, want %d to %d", n, len(units), closedUnit, lo, hi)
	}
	var sum float64
	for _, u := range units {
		if u <= 0 {
			t.Fatalf("unit of %v s", u)
		}
		sum += u
	}
	if sum > 2*d.Seconds() {
		t.Errorf("the units of 2 connections add up to %.3fs in a slice of %.3fs", sum, d.Seconds())
	}
}

func TestParseCPUTicks(t *testing.T) {
	stat := "cpu  3953432 10 601569 6178388 265207 5 214308 57687 99 1\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	stolen, all := parseCPUTicks([]byte(stat))
	if stolen != 57687 || all != 3953432+10+601569+6178388+265207+5+214308+57687 {
		t.Errorf("stolen %d of %d ticks", stolen, all)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu 1 2 3 x 5 6 7 8\n"} {
		if stolen, all := parseCPUTicks([]byte(bad)); stolen != 0 || all != 0 {
			t.Errorf("parseCPUTicks(%q) = %d, %d, want 0, 0", bad, stolen, all)
		}
	}
}

package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
	"appx/internal/sig"
)

// overloadGraph builds a one-host list→item dependency graph: each /list
// response fans out into item prefetches.
func overloadGraph() *sig.Graph {
	g := sig.NewGraph("t")
	pred := &sig.Signature{ID: "t:list#0", Method: "GET", URI: sig.Literal("app.example/list")}
	succ := &sig.Signature{ID: "t:item#0", Method: "GET", URI: sig.Literal("app.example/item"),
		Query: []sig.Field{{Key: "id", Value: sig.DepValue(pred.ID, "ids[*]")}}}
	g.Add(pred)
	g.Add(succ)
	g.AddDep(sig.Dependency{PredID: pred.ID, SuccID: succ.ID, RespPath: "ids[*]",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

// TestAdmissionGateSheds: with one admission slot occupied by a stalled
// request, the next arrival is shed with a 503 after the bounded wait, the
// shed is counted, and the stalled request still completes once released.
func TestAdmissionGateSheds(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/slow" {
			close(entered)
			<-release
		}
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{
		MaxConcurrentRequests: 1,
		AdmissionWait:         config.Duration(5 * time.Millisecond),
	}
	p := New(Options{Graph: g, Config: cfg, Upstream: up, DisablePrefetch: true})
	t.Cleanup(p.Close)

	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/slow", nil))
		done <- rec.Code
	}()
	<-entered

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/fast", nil))
	if rec.Code != 503 {
		t.Fatalf("second request while gate full = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("shed body = %q, want overload notice", rec.Body.String())
	}
	if _, shed := p.AdmissionCounts(); shed != 1 {
		t.Fatalf("admission shed count = %d, want 1", shed)
	}
	if mode := p.OverloadMode(); mode != "shedding" {
		t.Fatalf("mode after admission shed = %q, want shedding", mode)
	}

	close(release)
	if code := <-done; code != 200 {
		t.Fatalf("stalled request completed with %d, want 200", code)
	}
	if admitted, _ := p.AdmissionCounts(); admitted != 1 {
		t.Fatalf("admitted count = %d, want 1", admitted)
	}
}

// TestDrainingRefusesNewWork: after BeginDrain, proxied requests are refused
// with 503 while the status surface keeps answering and reports the
// draining mode as degraded health.
func TestDrainingRefusesNewWork(t *testing.T) {
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	p := New(Options{Graph: g, Config: config.Default(g), Upstream: up, DisablePrefetch: true})
	t.Cleanup(p.Close)

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/x", nil))
	if rec.Code != 200 {
		t.Fatalf("pre-drain request = %d, want 200", rec.Code)
	}

	p.BeginDrain()
	if !p.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/x", nil))
	if rec.Code != 503 {
		t.Fatalf("post-drain request = %d, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", adminv1.PathHealth, nil))
	if rec.Code != 200 {
		t.Fatalf("%s during drain = %d, want 200", adminv1.PathHealth, rec.Code)
	}
	var health adminv1.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("health not JSON: %v", err)
	}
	if health.Status != "degraded" {
		t.Fatalf("health status during drain = %v, want degraded", health.Status)
	}
	if health.Overload.Mode != "draining" {
		t.Fatalf("overload mode during drain = %v, want draining", health.Overload.Mode)
	}
}

// TestGovernorAIMD drives the controller with a fake clock through its whole
// range: multiplicative decrease on each overloaded interval down to the
// shedding floor, then additive recovery back to full prefetching.
func TestGovernorAIMD(t *testing.T) {
	cfg := config.Overload{
		GovernorInterval: config.Duration(100 * time.Millisecond),
		TargetP95:        config.Duration(50 * time.Millisecond),
	}.Filled()
	now := time.Unix(1_700_000_000, 0)
	g := newGovernor(cfg, func() time.Time { return now })

	if g.Level() != 1 || g.Mode() != "normal" {
		t.Fatalf("fresh governor: level=%v mode=%q, want 1/normal", g.Level(), g.Mode())
	}
	g.Observe(0, 0, false) // anchor lastAdjust

	// One interval with p95 past target halves the level.
	now = now.Add(101 * time.Millisecond)
	g.Observe(0, 60*time.Millisecond, false)
	if g.Level() != 0.5 {
		t.Fatalf("level after slow interval = %v, want 0.5", g.Level())
	}
	if g.Mode() != "degraded" {
		t.Fatalf("mode at level 0.5 = %q, want degraded", g.Mode())
	}

	// Queue pressure and admission sheds are equally valid overload signals;
	// repeated overloaded intervals converge on the floor.
	now = now.Add(101 * time.Millisecond)
	g.Observe(0.9, 0, false)
	if g.Level() != 0.25 {
		t.Fatalf("level after queue-pressure interval = %v, want 0.25", g.Level())
	}
	for i := 0; i < 4; i++ {
		now = now.Add(101 * time.Millisecond)
		g.Observe(0, 0, true)
	}
	if g.Level() != cfg.GovernorMinLevel {
		t.Fatalf("level after sustained sheds = %v, want floor %v", g.Level(), cfg.GovernorMinLevel)
	}
	if !g.Shedding() || g.Mode() != "shedding" {
		t.Fatalf("at floor: shedding=%v mode=%q, want true/shedding", g.Shedding(), g.Mode())
	}

	// Clean intervals recover additively to full prefetching.
	for i := 0; i < 12 && g.Level() < 1; i++ {
		now = now.Add(101 * time.Millisecond)
		g.Observe(0, 0, false)
	}
	if g.Level() != 1 || g.Mode() != "normal" {
		t.Fatalf("after recovery: level=%v mode=%q, want 1/normal", g.Level(), g.Mode())
	}
	dec, inc := g.Adjustments()
	if dec == 0 || inc == 0 {
		t.Fatalf("adjustment counters = %d/%d, want both nonzero", dec, inc)
	}
}

// TestPrefetchPanicRecovered: a reconstruction whose origin call panics is
// recovered by the worker, counted as a prefetch failure, feeds the
// signature's backoff into suspension, and leaves the pool alive for both
// later prefetches and live traffic. Regression for the seed scheduler,
// where one panicking task killed a worker goroutine for good.
func TestPrefetchPanicRecovered(t *testing.T) {
	var mu sync.Mutex
	round := 0
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		mu.Lock()
		defer mu.Unlock()
		if r.Path == "/list" {
			round++
			ids := make([]string, 4)
			for i := range ids {
				ids[i] = fmt.Sprintf("p%d-%d", round, i)
			}
			body, _ := json.Marshal(map[string]any{"ids": ids})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		for _, q := range r.Query {
			if q.Key == "id" && strings.HasPrefix(q.Value, "p") {
				panic("origin client bug: prefetch-only id " + q.Value)
			}
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})
	g := overloadGraph()
	cfg := config.Default(g)
	cfg.Resilience = &config.Resilience{
		RetryAttempts:        1,
		PrefetchFailureLimit: 2,
		BreakerFailures:      1000, // keep the host breaker out of the way
	}
	now := time.Unix(1_700_000_000, 0)
	p := New(Options{Graph: g, Config: cfg, Upstream: up, Workers: 2,
		Now:  func() time.Time { return now },
		Rand: func() float64 { return 0 },
	})
	t.Cleanup(p.Close)
	pt := &proxyTransport{p: p, user: "panic-user"}

	// Teach the item exemplar with a live, non-panicking id.
	if resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "seed"}}}); err != nil || resp.Status != 200 {
		t.Fatalf("exemplar request: %v %v", resp, err)
	}
	// The list fan-out spawns prefetches for ids the client never asked
	// for; every one of them panics inside the origin call.
	if resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/list"}); err != nil || resp.Status != 200 {
		t.Fatalf("list request: %v %v", resp, err)
	}
	p.Drain()

	m := p.SchedMetrics()
	if m.Panics == 0 {
		t.Fatal("no recovered panics counted")
	}
	snap := p.Stats().Snapshot()
	if snap.PerSig["t:item#0"].PrefetchErrors == 0 {
		t.Fatal("recovered panic not counted as prefetch error")
	}
	if !p.sigSuspended("t:item#0") {
		t.Fatal("panicking signature not suspended by failure backoff")
	}
	// The pool survived: live traffic still flows through the proxy.
	resp, err := pt.RoundTrip(&httpmsg.Request{Method: "GET", Host: "app.example", Path: "/item",
		Query: []httpmsg.Field{{Key: "id", Value: "seed2"}}})
	if err != nil || resp.Status != 200 {
		t.Fatalf("live request after panics: %v %v", resp, err)
	}
}

// TestStatsExposeOverloadAndSched: both operational endpoints carry the
// overload and per-class scheduler blocks.
func TestStatsExposeOverloadAndSched(t *testing.T) {
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	p := New(Options{Graph: g, Config: config.Default(g), Upstream: up})
	t.Cleanup(p.Close)

	fetch := func(path string, into any) {
		t.Helper()
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s = %d, want 200", path, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s not JSON: %v", path, err)
		}
	}
	check := func(path string, ovl adminv1.Overload, sch adminv1.Sched) {
		t.Helper()
		if ovl.Mode != "normal" || ovl.Level != 1.0 {
			t.Fatalf("%s overload block = %+v, want normal/1", path, ovl)
		}
		if sch.Capacity != 4096 {
			t.Fatalf("%s sched capacity = %d, want 4096", path, sch.Capacity)
		}
	}
	var stats adminv1.StatsResponse
	fetch(adminv1.PathStats, &stats)
	check(adminv1.PathStats, stats.Overload, stats.Sched)
	var health adminv1.HealthResponse
	fetch(adminv1.PathHealth, &health)
	check(adminv1.PathHealth, health.Overload, health.Sched)
}

// fakeClock is a settable clock the proxy's own goroutines (sweeper,
// workers) may read while the test advances it.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestGovernorSamplesIntervalP95: a real proxy with a fake clock and a slow
// origin. Requests inside a governor interval only feed the latency window;
// the first request past the interval closes it, and a window whose p95
// exceeds the target halves the level. A clean window steps it back.
func TestGovernorSamplesIntervalP95(t *testing.T) {
	clk := newFakeClock()
	var slow atomic.Bool
	slow.Store(true)
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if slow.Load() {
			clk.Advance(80 * time.Millisecond)
		}
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}, nil
	})
	g := sig.NewGraph("t")
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{
		GovernorInterval: config.Duration(100 * time.Millisecond),
		TargetP95:        config.Duration(50 * time.Millisecond),
	}
	p := New(Options{Graph: g, Config: cfg, Upstream: up, DisablePrefetch: true, Now: clk.Now})
	t.Cleanup(p.Close)
	serve := func() {
		t.Helper()
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest("GET", "http://app.example/x", nil))
		if rec.Code != 200 {
			t.Fatalf("request = %d, want 200", rec.Code)
		}
	}
	level := func(want float64) {
		t.Helper()
		if got := p.OverloadLevel(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("level = %v, want %v", got, want)
		}
	}

	serve() // t0+80ms: the first request anchors the governor's interval
	serve() // t0+160ms: inside the interval, only observed
	level(1)
	serve() // t0+240ms: first request past the interval closes the slow window
	level(0.5)
	if p95 := p.ClientLatencyQuantile(0.95); p95 <= 50*time.Millisecond {
		t.Fatalf("closed window p95 = %v, want past the 50ms target", p95)
	}

	slow.Store(false)
	serve() // fast, but inside the new interval
	level(0.5)
	clk.Advance(101 * time.Millisecond)
	serve() // closes a clean window
	level(0.6)
	if p95 := p.ClientLatencyQuantile(0.95); p95 > time.Millisecond {
		t.Fatalf("clean window p95 = %v, want ≤ 1ms", p95)
	}
	if dec, inc := p.gov.Adjustments(); dec != 1 || inc != 1 {
		t.Fatalf("adjustments = %d/%d, want 1/1", dec, inc)
	}
}

// TestGovernorSeesDrainedQueueBurst: a prefetch fan-out fills the queue past
// its high-water mark and drains completely before the next sample; the
// sampled peak still marks the interval overloaded.
func TestGovernorSeesDrainedQueueBurst(t *testing.T) {
	release := make(chan struct{})
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		if r.Path == "/list" {
			body, _ := json.Marshal(map[string]any{"ids": []string{"p0", "p1", "p2", "p3", "p4", "p5"}})
			return &httpmsg.Response{Status: 200,
				Header: []httpmsg.Field{{Key: "Content-Type", Value: "application/json"}},
				Body:   body}, nil
		}
		for _, q := range r.Query {
			if q.Key == "id" && strings.HasPrefix(q.Value, "p") {
				<-release // prefetches hold the single worker until released
			}
		}
		return &httpmsg.Response{Status: 200, Body: []byte(`{}`)}, nil
	})
	g := overloadGraph()
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{
		GovernorInterval: config.Duration(100 * time.Millisecond),
		MaxQueue:         4,
		QueueHighWater:   0.5,
	}
	clk := newFakeClock()
	p := New(Options{Graph: g, Config: cfg, Upstream: up, Workers: 1,
		Now:  clk.Now,
		Rand: func() float64 { return 0 },
	})
	t.Cleanup(p.Close)
	pt := &proxyTransport{p: p, user: "burst-user"}
	get := func(path, id string) {
		t.Helper()
		req := &httpmsg.Request{Method: "GET", Host: "app.example", Path: path}
		if id != "" {
			req.Query = []httpmsg.Field{{Key: "id", Value: id}}
		}
		if resp, err := pt.RoundTrip(req); err != nil || resp.Status != 200 {
			t.Fatalf("%s: %v %v", path, resp, err)
		}
	}

	get("/item", "seed") // teaches the exemplar and anchors the governor
	get("/list", "")     // fans out six prefetches behind one blocked worker
	close(release)
	p.Drain()
	if n := p.sched.QueueLen(); n != 0 {
		t.Fatalf("queue after drain = %d, want 0", n)
	}
	if lvl := p.OverloadLevel(); lvl != 1 {
		t.Fatalf("level before the sample = %v, want 1", lvl)
	}
	clk.Advance(101 * time.Millisecond)
	get("/item", "seed2") // first request past the interval samples the peak
	if lvl := p.OverloadLevel(); lvl != 0.5 {
		t.Fatalf("level after a drained burst = %v, want 0.5", lvl)
	}
}

// TestObserveClientOneAdjustmentPerInterval: many goroutines observing at
// once across interval boundaries produce exactly one governor adjustment
// per interval — the boundary is claimed by a single request.
func TestObserveClientOneAdjustmentPerInterval(t *testing.T) {
	g := sig.NewGraph("t")
	cfg := config.Default(g)
	cfg.Overload = &config.Overload{GovernorInterval: config.Duration(100 * time.Millisecond)}
	clk := newFakeClock()
	p := New(Options{Graph: g, Config: cfg, DisablePrefetch: true, Now: clk.Now,
		Upstream: UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
			return &httpmsg.Response{Status: 200}, nil
		})})
	t.Cleanup(p.Close)

	const goroutines, perGoroutine, intervals = 8, 200, 10
	for k := 0; k <= intervals; k++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < perGoroutine; j++ {
					p.observeClient(time.Millisecond)
				}
			}()
		}
		close(start)
		wg.Wait()
		// Phase 0 only anchors the first interval; each later phase starts
		// one interval past the previous boundary.
		if dec, inc := p.gov.Adjustments(); dec+inc != int64(k) {
			t.Fatalf("after %d boundaries: %d adjustments, want %d", k, dec+inc, k)
		}
		clk.Advance(101 * time.Millisecond)
	}
	if got, want := p.clientLat.hist.Count(), int64((intervals+1)*goroutines*perGoroutine); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
}

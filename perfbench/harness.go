package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"appx/internal/apps"
	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/netem"
	"appx/internal/proxy"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
	"appx/internal/static"
)

// The proxy is wired exactly as `appx-proxy -app X` wires it with no flags:
// config.Default(g) untouched (shared tier on), the -workers and
// -prefetch-policy flag defaults, and every other proxy.Options field at its
// zero value. TestWiringMatchesAppxProxyDefaults pins this against the
// command's own flag defaults.
const (
	appxProxyWorkers = 8
	appxProxyPolicy  = "static"
)

// proxyOptions returns the production wiring for one analyzed app.
func proxyOptions(g *sig.Graph, up proxy.Upstream) proxy.Options {
	return proxy.Options{
		Graph:          g,
		Config:         config.Default(g),
		Upstream:       up,
		Workers:        appxProxyWorkers,
		PrefetchPolicy: appxProxyPolicy,
	}
}

// origin serves one app's deterministic REST API and counts the bytes it
// sends, so data_x can compare origin traffic with what clients received.
type origin struct {
	h      http.Handler
	bytes  atomic.Int64
	active atomic.Int64
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.active.Add(1)
	defer o.active.Add(-1)
	o.h.ServeHTTP(countingWriter{w, &o.bytes}, r)
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// appEnv is one app under test: its origin on a loopback listener, the
// proxy on another, and (shaped workloads) netem links on the origin hop.
type appEnv struct {
	app       *apps.App
	graph     *sig.Graph
	px        *proxy.Proxy
	origin    *origin
	proxyAddr string

	originSrv, proxySrv *http.Server
}

// startApp analyzes the app and starts its origin and proxy. scale > 0
// shapes the proxy↔origin hop with the app's Table-2 RTTs and a 25 Mbps
// link and runs the origin's server-side delays, all compressed by scale;
// scale == 0 is the unshaped, zero-delay loopback set-up. A non-nil tracer
// wraps the proxy handler and upstream in benchmark spans.
func startApp(a *apps.App, scale float64, tr *tracer) (*appEnv, error) {
	e := &appEnv{app: a}
	t0 := time.Now()
	g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", a.Name, err)
	}
	tr.record(spanAnalyze, 0, t0, time.Now())
	e.graph = g

	e.origin = &origin{h: a.Handler(scale)}
	oln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin listen: %w", err)
	}
	e.originSrv = &http.Server{Handler: e.origin}
	go e.originSrv.Serve(oln)

	resolve := map[string]string{}
	links := map[string]netem.Link{}
	for _, h := range a.Hosts {
		resolve[h] = oln.Addr().String()
		if scale > 0 {
			links[h] = netem.Link{
				RTT:       time.Duration(float64(a.HostRTT[h]) * scale),
				Bandwidth: int64(25_000_000 / scale),
			}
		}
	}
	var up proxy.Upstream = proxy.NewNetUpstream(resolve, links)
	if tr != nil {
		up = tracedUpstream{tr, up}
	}
	e.px = proxy.New(proxyOptions(g, up))

	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	e.proxyAddr = pln.Addr().String()
	var h http.Handler = e.px
	if tr != nil {
		h = tracedHandler{tr, e.px}
	}
	e.proxySrv = &http.Server{Handler: h}
	go e.proxySrv.Serve(pln)
	return e, nil
}

func (e *appEnv) close() {
	if e.proxySrv != nil {
		e.proxySrv.Close()
	}
	if e.originSrv != nil {
		e.originSrv.Close()
	}
	if e.px != nil {
		e.px.Close()
	}
}

// quiesce waits until no prefetch is queued and the origin is idle, so
// counters read after it describe finished work. It gives up after limit.
func quiesce(envs []*appEnv, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	idleRounds := 0
	for time.Now().Before(deadline) {
		idle := true
		for _, e := range envs {
			m := e.px.SchedMetrics()
			queued := int64(0)
			for _, c := range []sched.ClassMetrics{m.Foreground, m.Shallow, m.Deep} {
				queued += c.Submitted - c.Ran - c.Dropped()
			}
			if queued > 0 || e.origin.active.Load() > 0 {
				idle = false
			}
		}
		if idle {
			idleRounds++
			if idleRounds >= 3 {
				return true
			}
		} else {
			idleRounds = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// settler returns cold's wait between interactions: once the proxy has
// finished serving (and learning from) every request the single client
// has sent, wait for the prefetches those requests triggered. The next
// interaction then never races them, which keeps cold's hit/miss mix, and
// with it data_x and the latency medians, the same from run to run. A
// request that failed before reaching the proxy never finishes a span, so
// the wait for spans is bounded; the failure is already counted.
func (e *appEnv) settler() func(sent int64) {
	base := e.px.SpanTotal()
	return func(sent int64) {
		for limit := time.Now().Add(5 * time.Second); e.px.SpanTotal() < base+uint64(sent) && time.Now().Before(limit); {
			time.Sleep(10 * time.Microsecond)
		}
		e.px.Drain()
	}
}

// readout is every program counter the benchmark reads, summed over the
// workload's proxies. Counters are cumulative; per-phase figures are the
// difference of two readouts.
type readout struct {
	stats         proxy.Snapshot
	cache         cache.Metrics
	sched         sched.Metrics
	shed          int64
	govSuppressed int64
	users         int
	originBytes   int64
	prom          map[string]float64
	govLevel      float64
}

func readAll(envs []*appEnv) readout {
	r := readout{prom: map[string]float64{}}
	for _, e := range envs {
		s := e.px.Stats().Snapshot()
		r.stats.ForwardedBytes += s.ForwardedBytes
		r.stats.PrefetchedBytes += s.PrefetchedBytes
		r.stats.ServedBytes += s.ServedBytes
		r.stats.Hits += s.Hits
		r.stats.SharedHits += s.SharedHits
		r.stats.Misses += s.Misses
		r.stats.Prefetches += s.Prefetches
		r.stats.UsedEntries += s.UsedEntries
		r.stats.Retries += s.Retries
		r.stats.PrefetchErrors += s.PrefetchErrors
		r.stats.PrefetchSuppressed += s.PrefetchSuppressed

		c := e.px.Cache().Metrics()
		r.cache.Hits += c.Hits
		r.cache.Misses += c.Misses
		r.cache.SharedHits += c.SharedHits
		r.cache.Puts += c.Puts
		r.cache.ResidentBytes += c.ResidentBytes
		r.cache.Evictions.Expired += c.Evictions.Expired
		r.cache.Evictions.Budget += c.Evictions.Budget
		r.cache.Evictions.ScopeBytes += c.Evictions.ScopeBytes
		r.cache.Evictions.ScopeEntries += c.Evictions.ScopeEntries

		m := e.px.SchedMetrics()
		addClass(&r.sched.Foreground, m.Foreground)
		addClass(&r.sched.Shallow, m.Shallow)
		addClass(&r.sched.Deep, m.Deep)

		_, shed := e.px.AdmissionCounts()
		r.shed += shed
		r.govSuppressed += e.px.GovernorSuppressed()
		r.users += e.px.UserCount()
		r.originBytes += e.origin.bytes.Load()

		var buf bytes.Buffer
		e.px.Registry().WritePrometheus(&buf)
		for series, v := range parsePrometheus(&buf) {
			r.prom[series] += v
		}
	}
	r.govLevel = r.prom["appx_governor_level"] / float64(len(envs))
	return r
}

func addClass(dst *sched.ClassMetrics, c sched.ClassMetrics) {
	dst.Submitted += c.Submitted
	dst.Ran += c.Ran
	dst.DroppedFull += c.DroppedFull
	dst.DroppedClosed += c.DroppedClosed
	dst.DroppedExpired += c.DroppedExpired
}

// parsePrometheus reads the registry's text exposition into series → value.
func parsePrometheus(b *bytes.Buffer) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// checksum is the oracle's cheap body fingerprint.
func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

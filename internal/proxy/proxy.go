// Package proxy implements the APPx acceleration proxy (§4.2, §4.5, §5 of
// the paper): a forward HTTP proxy that learns run-time values from live
// traffic, reconstructs dependent requests ahead of time, prefetches their
// responses with priority scheduling, and serves a prefetched response only
// when the client's request is byte-equivalent to the prefetched one.
package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/cache"
	"appx/internal/cluster"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/obs"
	"appx/internal/obs/adminv1"
	"appx/internal/persist"
	"appx/internal/policy"
	"appx/internal/proxy/resilience"
	"appx/internal/proxy/sched"
	"appx/internal/sig"
	"appx/internal/stream"
)

// Options configures a Proxy.
type Options struct {
	Graph    *sig.Graph
	Config   *config.Config
	Upstream Upstream

	// Workers sizes the prefetch pool (default 8).
	Workers int
	// MaxChainDepth bounds recursive prefetching along dependency chains
	// (default 8; Figure 3(c) prefetches chains).
	MaxChainDepth int
	// MaxPendingPerSig bounds instances waiting for an exemplar (default 256).
	MaxPendingPerSig int
	// MaxCacheEntriesPerUser overrides the cache config's per-user entry
	// cap when > 0 (default: config.Cache.MaxEntriesPerUser, 4096).
	MaxCacheEntriesPerUser int
	// MaxUsers bounds tracked user states (default 10000); the least
	// recently seen user is evicted when exceeded.
	MaxUsers int
	// DisablePrefetch turns the proxy into a plain forwarder (the "Orig"
	// baseline of §6.2).
	DisablePrefetch bool
	// DisableChaining stops prefetched responses from seeding further
	// prefetches (ablates the Figure 3(c) chain behaviour).
	DisableChaining bool
	// RefreshExpired re-issues the prefetch when a cached entry is found
	// expired at lookup time, keeping hot entries warm. An extension beyond
	// the paper, whose proxy re-learns only from the next live predecessor.
	RefreshExpired bool
	// Rand supplies probability draws; defaults to math/rand. Injected for
	// deterministic tests.
	Rand func() float64
	// Now supplies time; defaults to time.Now. Injected for expiry tests.
	Now func() time.Time
	// UserKey extracts the per-user state key from a request; defaults to
	// the client IP (§5: "the prototype distinguishes users by IP address").
	UserKey func(*http.Request) string
	// SpanBuffer sizes the recent-spans ring served by /appx/v1/spans
	// (default 1024, minimum 16).
	SpanBuffer int

	// StreamChunkBytes sizes the pooled chunks the streaming data plane
	// moves bodies through (default stream.DefaultChunkBytes, 64 KiB).
	StreamChunkBytes int
	// CaptureMaxBytes caps how much of a streamed origin body is retained
	// for cache insertion and learning (default 4 MiB). Larger bodies
	// stream through to the client uncached; over-cap prefetches abort.
	CaptureMaxBytes int64
	// MaxBodyBytes bounds client request bodies (413 beyond it) and clamps
	// CaptureMaxBytes (default 64 MiB; negative disables both guards).
	MaxBodyBytes int64

	// PrefetchPolicy selects the prefetch decision policy: "static" (the
	// default — candidates in dependency-graph order, the historical
	// behaviour) or "markov" (per-user history reorders and prunes chains
	// by observed transition probability). Unknown values fall back to
	// static.
	PrefetchPolicy string
	// PolicyDecay is the markov model's transition-count half-life
	// (default policy.DefaultHalfLife, 10m).
	PolicyDecay time.Duration
	// PolicyMaxUsers bounds tracked per-user markov models (default
	// policy.DefaultMaxUsers, 10000).
	PolicyMaxUsers int

	// StateDir enables crash-safe persistence: a disk cache tier under
	// <StateDir>/cache plus snapshot/restore of learned soft state in
	// <StateDir>/snapshot.appx. Empty disables persistence.
	StateDir string
	// SnapshotInterval is the periodic-snapshot cadence (0 disables the
	// loop; BeginDrain still writes a final snapshot).
	SnapshotInterval time.Duration
	// PersistFaults optionally injects disk faults into persistence writes
	// (hostile-recovery tests and drills).
	PersistFaults *persist.Faults

	// Cluster configures fleet membership (cluster.Config.Self non-empty
	// turns it on): this instance joins a consistent-hash ring that pins
	// each user's learned state to one owner, relays non-owned requests
	// there, and fills shared-tier misses from ring siblings before origin.
	Cluster cluster.Config

	// RequestBudget is the per-request latency budget: every cross-instance
	// stage (relay, peer fill) gets a timeout derived from what remains, and
	// the remainder propagates to relay targets via X-Appx-Budget-Ms —
	// clamped at each hop, never grown. 0 disables local budgets (inherited
	// ones are still honoured).
	RequestBudget time.Duration
	// HedgeDelay is the static fallback delay before a slow peer-fill peek
	// earns a hedge to the next ring successor (default 30ms); once a peer
	// has enough observed fills its p90 takes over.
	HedgeDelay time.Duration
	// HedgeRateCap bounds hedge launches per second cluster-wide (default
	// 64): under overload, hedges are the first traffic to shed.
	HedgeRateCap float64
	// DisableHedging turns hedged peer reads off (fills walk peers
	// sequentially, as before).
	DisableHedging bool
}

// userHeader carries an explicit per-user tag from emulated devices; the
// default UserKey prefers it over the client IP (all emulated devices on one
// machine share 127.0.0.1).
const userHeader = "X-Appx-User"

// Proxy is the acceleration proxy. It implements http.Handler; point mobile
// clients at it as their HTTP proxy.
type Proxy struct {
	opts  Options
	stats *Stats
	sched *sched.Scheduler

	// Observability: one registry is the single exposition point
	// (/appx/v1/metrics); the span recorder attributes each request's wall
	// time to lifecycle stages and a terminal outcome.
	reg   *obs.Registry
	spans *obs.SpanRecorder

	// Origin-path resilience: per-host circuit breakers shared by both
	// retrying upstreams. fwdUp serves live client requests (retries, but
	// never refuses — the client asked); preUp serves prefetches (gated by
	// the breaker, so a sick host stops consuming workers).
	res      config.Resilience
	breakers *resilience.Breakers
	fwdUp    resilience.Upstream
	preUp    resilience.Upstream

	// sigFail tracks per-signature consecutive prefetch failures and the
	// exponential-backoff suspension window they earn.
	resMu   sync.Mutex
	sigFail map[string]*sigBackoff

	mu      sync.Mutex
	users   map[string]*user
	samples map[string]*httpmsg.Request

	// store holds prefetched responses: per-user scopes plus the cross-user
	// shared tier; inflight prefetch dedup rides on the same scopes.
	store    *cache.Store
	cacheCfg config.Cache

	// dataUsed accounts prefetch bytes per budget window (C4).
	dataUsed *usageWindow

	// Overload-control layer: the admission gate bounds concurrent client
	// requests, the governor scales speculative prefetching with load, and
	// clientLat windows client latencies per governor interval for the
	// governor's p95 signal and telemetry.
	ovl           config.Overload
	gate          *admitGate
	gov           *governor
	clientLat     clientWindow
	govSuppressed atomic.Int64
	draining      atomic.Bool

	// Crash-safe persistence (persist.go): disk cache tier + state
	// snapshots, active when Options.StateDir is set.
	persist         persistState
	restoreFailures atomic.Int64

	// Cluster mode (cluster.go): membership ring, owner forwarding, and
	// sibling peer fill. Nil when Options.Cluster is not enabled.
	cluster *clusterState

	// Prefetch decision policy (policy.go in this package): the static
	// baseline always exists; markovPol is additionally non-nil when
	// Options.PrefetchPolicy selects history-aware ranking. skips counts
	// candidates dropped before reaching the scheduler, by reason.
	staticPol *policy.Static
	markovPol *policy.Markov
	rankHist  *obs.Histogram
	skips     prefetchSkips

	// budget counts request-latency-budget events (budget.go).
	budget struct {
		inherited atomic.Int64
		clamped   atomic.Int64
		exhausted atomic.Int64
	}

	// Streaming data plane (stream.go): pooled body chunks, the in-flight
	// fetch registry clients attach to, resolved caps, and data-plane
	// telemetry.
	chunks      *stream.Pool
	captureCap  int64
	maxBody     int64
	flightMu    sync.Mutex
	flights     map[string]*flight
	streamStats streamStatCounters
	ttfb        *obs.Histogram
}

// sigBackoff is one signature's failure streak and suspension deadline.
type sigBackoff struct {
	consecutive int
	until       time.Time
}

// SampleRequest returns a successfully prefetched concrete request for the
// signature, or nil. The verification phase uses it to probe expiration
// times (§4.3).
func (p *Proxy) SampleRequest(sigID string) *httpmsg.Request {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.samples[sigID]; ok {
		return r.Clone()
	}
	return nil
}

// pendingInstance is a successor instance waiting for an exemplar.
type pendingInstance struct {
	s     *sig.Signature
	pred  string
	combo map[string]string
	depth int
}

// user holds per-user learning state (§2: "The proxy keeps track of user
// contexts"). The prefetched responses themselves live in the shared
// cache.Store, under this user's scope or the cross-user shared tier.
type user struct {
	key string

	mu        sync.Mutex
	exemplars map[string]*exemplar         // sigID → latest live example
	pending   map[string][]pendingInstance // sigID → instances awaiting exemplar
	lastSeen  time.Time                    // guarded by Proxy.mu, not mu
}

// New builds a proxy.
func New(opts Options) *Proxy {
	if opts.Workers == 0 {
		opts.Workers = 8
	}
	if opts.MaxChainDepth == 0 {
		opts.MaxChainDepth = 8
	}
	if opts.MaxPendingPerSig == 0 {
		opts.MaxPendingPerSig = 256
	}
	if opts.MaxUsers == 0 {
		opts.MaxUsers = 10000
	}
	if opts.Rand == nil {
		opts.Rand = rand.Float64
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.UserKey == nil {
		opts.UserKey = func(r *http.Request) string {
			if u := r.Header.Get(userHeader); u != "" {
				// NUL bytes are stripped so a header-supplied key can never
				// forge the NUL-prefixed reserved shared scope (or smuggle
				// separator bytes into scope-prefixed internal keys).
				return strings.ReplaceAll(u, "\x00", "")
			}
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				return r.RemoteAddr
			}
			return host
		}
	}
	if opts.Config == nil {
		opts.Config = config.Default(opts.Graph)
	}
	if opts.StreamChunkBytes == 0 {
		opts.StreamChunkBytes = stream.DefaultChunkBytes
	}
	if opts.CaptureMaxBytes == 0 {
		opts.CaptureMaxBytes = 4 << 20
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	reg := obs.NewRegistry()
	p := &Proxy{
		opts:    opts,
		reg:     reg,
		stats:   NewStatsOn(reg),
		users:   map[string]*user{},
		sigFail: map[string]*sigBackoff{},
		flights: map[string]*flight{},
	}
	p.spans = obs.NewSpanRecorder(reg, opts.SpanBuffer, func() time.Time { return p.opts.Now() })
	p.chunks = stream.NewPool(opts.StreamChunkBytes)
	p.captureCap = opts.CaptureMaxBytes
	p.maxBody = opts.MaxBodyBytes
	if p.maxBody < 0 {
		p.maxBody = 0 // explicit opt-out: unlimited request bodies
	}
	p.ttfb = reg.Histogram("appx_ttfb_seconds",
		"Time from request admission to the first response byte on the wire.", nil)
	p.res = opts.Config.EffectiveResilience()
	// Now/Rand are read through p.opts so tests that rebind them after New
	// (the established idiom here) also steer the resilience layer.
	p.breakers = resilience.NewBreakers(resilience.BreakerOptions{
		FailureThreshold: p.res.BreakerFailures,
		OpenTimeout:      time.Duration(p.res.BreakerOpenTimeout),
		Now:              func() time.Time { return p.opts.Now() },
	})
	retry := resilience.RetryOptions{
		MaxAttempts:       p.res.RetryAttempts,
		BaseDelay:         time.Duration(p.res.RetryBaseDelay),
		MaxDelay:          time.Duration(p.res.RetryMaxDelay),
		PerAttemptTimeout: time.Duration(p.res.AttemptTimeout),
		Rand:              func() float64 { return p.opts.Rand() },
		OnRetry:           func(host string, attempt int) { p.stats.CountRetry() },
	}
	p.fwdUp = resilience.NewRetrier(opts.Upstream, retry, p.breakers, false)
	p.preUp = resilience.NewRetrier(opts.Upstream, retry, p.breakers, true)
	p.cacheCfg = opts.Config.EffectiveCache()
	if opts.MaxCacheEntriesPerUser > 0 {
		p.cacheCfg.MaxEntriesPerUser = opts.MaxCacheEntriesPerUser
	}
	// The disk tier must exist before the store so spills and read-through
	// promotion work from the first request.
	p.initPersist()
	var tier cache.Tier
	if p.persist.tier != nil {
		tier = p.persist.tier
	}
	p.store = cache.New(cache.Options{
		Shards:             p.cacheCfg.Shards,
		MaxBytes:           p.cacheCfg.MaxBytes,
		PerScopeBytes:      p.cacheCfg.PerUserBytes,
		MaxEntriesPerScope: p.cacheCfg.MaxEntriesPerUser,
		Now:                func() time.Time { return p.opts.Now() },
		Tier:               tier,
	})
	p.store.StartSweeper(time.Duration(p.cacheCfg.SweepInterval))
	p.dataUsed = newUsageWindow(opts.Config.BudgetWindow())
	p.ovl = opts.Config.EffectiveOverload()
	p.gate = newAdmitGate(p.ovl.MaxConcurrentRequests, time.Duration(p.ovl.AdmissionWait))
	p.gov = newGovernor(p.ovl, func() time.Time { return p.opts.Now() })
	p.clientLat.hist = reg.Histogram("appx_client_latency_seconds",
		"Client-visible latency of served proxied requests; the governor acts on its per-interval p95.", nil)
	p.sched = sched.NewWith(sched.Config{
		Workers:  opts.Workers,
		Priority: p.stats.Priority,
		MaxQueue: p.ovl.MaxQueue,
		Now:      func() time.Time { return p.opts.Now() },
	})
	// The policy layer hooks into the governor, breakers, and backoff state
	// built above; it must exist before any request can fan out prefetches.
	p.initPolicy()
	p.registerBridges(reg)
	p.registerStreamBridges(reg)
	p.registerPersistBridges(reg)
	p.registerPolicyBridges(reg)
	// Restore before any request is served; the snapshot loop starts only
	// after the restored state is in place.
	p.restorePersist()
	p.startPersistLoop()
	// Cluster mode comes up last, once the instance can already serve: the
	// first health probes from peers must find a working proxy.
	if opts.Cluster.Enabled() {
		p.initCluster(reg)
	}
	return p
}

// registerBridges pulls subsystem-owned counters and gauges — admission
// gate, governor, scheduler classes, cache tier, breakers — onto the
// registry at scrape time, so /appx/v1/metrics exposes one coherent surface
// without those subsystems importing obs or paying write-path costs.
func (p *Proxy) registerBridges(reg *obs.Registry) {
	reg.CounterFunc("appx_admission_admitted_total", "Client requests admitted past the gate.",
		func() int64 { a, _ := p.gate.counts(); return a })
	reg.CounterFunc("appx_admission_shed_total", "Client requests shed by the admission gate.",
		func() int64 { _, s := p.gate.counts(); return s })
	reg.CounterFunc("appx_governor_suppressed_total", "Prefetches the governor declined to issue.",
		p.govSuppressed.Load)
	reg.GaugeFunc("appx_governor_level", "AIMD prefetch level (0..1).", p.gov.Level)
	reg.GaugeFunc("appx_prefetch_queue_depth", "Queued prefetch tasks.",
		func() float64 { return float64(p.sched.QueueLen()) })
	reg.GaugeFunc("appx_users", "Tracked per-user learning states.",
		func() float64 { return float64(p.UserCount()) })
	reg.GaugeFunc("appx_cache_resident_bytes", "Bytes resident in the prefetch store.",
		func() float64 { return float64(p.store.ResidentBytes()) })
	reg.GaugeFunc("appx_breakers_open", "Origin hosts whose circuit breaker is not closed.",
		func() float64 {
			n := 0
			for _, b := range p.breakers.Snapshot() {
				if b.State != resilience.Closed {
					n++
				}
			}
			return float64(n)
		})
	for _, c := range []sched.Class{sched.ClassForeground, sched.ClassShallow, sched.ClassDeep} {
		c := c
		reg.CounterFunc(`appx_sched_submitted_total{class="`+c.String()+`"}`,
			"Prefetch tasks accepted into the queue by class.",
			func() int64 { return p.sched.Metrics().ByClass(c).Submitted })
		reg.CounterFunc(`appx_sched_ran_total{class="`+c.String()+`"}`,
			"Prefetch tasks dispatched to a worker by class.",
			func() int64 { return p.sched.Metrics().ByClass(c).Ran })
	}
	reg.CounterFunc(`appx_cache_evictions_total{cause="expired"}`, "Cache evictions by cause.",
		func() int64 { return p.store.Metrics().Evictions.Expired })
	reg.CounterFunc(`appx_cache_evictions_total{cause="budget"}`, "Cache evictions by cause.",
		func() int64 { return p.store.Metrics().Evictions.Budget })
	reg.CounterFunc("appx_budget_inherited_total", "Requests arriving with a propagated latency budget.",
		p.budget.inherited.Load)
	reg.CounterFunc("appx_budget_clamped_total", "Inherited budgets clamped to the local limit.",
		p.budget.clamped.Load)
	reg.CounterFunc("appx_budget_exhausted_total", "Stage attempts skipped on an exhausted budget.",
		p.budget.exhausted.Load)
}

// Breakers exposes the per-host circuit breaker set (operational tooling
// and tests).
func (p *Proxy) Breakers() *resilience.Breakers { return p.breakers }

// Stats exposes the proxy's counters.
func (p *Proxy) Stats() *Stats { return p.stats }

// Registry exposes the proxy's metrics registry (the /appx/v1/metrics
// source; tests and embedders may register extra series).
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// RecentSpans returns up to n of the most recently finished request spans,
// newest first.
func (p *Proxy) RecentSpans(n int) []obs.SpanSnapshot { return p.spans.Recent(n) }

// SpanTotal reports the lifetime count of finished request spans.
func (p *Proxy) SpanTotal() uint64 { return p.spans.Total() }

// Cache exposes the prefetch store (operational tooling and tests).
func (p *Proxy) Cache() *cache.Store { return p.store }

// DataUsedBytes reports prefetch response bytes fetched in the current
// budget window.
func (p *Proxy) DataUsedBytes() int64 { return p.dataUsed.Used(p.opts.Now()) }

// Drain waits for all queued prefetches to finish (testing/verification).
func (p *Proxy) Drain() { p.sched.Drain() }

// BeginDrain flips the proxy into lifecycle draining: new proxied requests
// are refused with 503 while in-flight ones finish; the status endpoints
// keep serving so orchestrators can watch the drain. Part of graceful
// shutdown — the server stops admitting before it waits for in-flight work.
// With persistence enabled the drain also writes a final snapshot, so a
// graceful restart resumes from the very last learned state rather than
// the last periodic tick.
func (p *Proxy) BeginDrain() {
	if p.draining.CompareAndSwap(false, true) {
		// Cluster I/O dies first: Close cancels the cluster context, which
		// aborts in-flight probes and background peer fills immediately — a
		// drain must not spend its deadline waiting out network timeouts on
		// peers that may themselves be going down.
		if p.cluster != nil {
			p.cluster.c.Close()
		}
		p.SnapshotNow()
	}
}

// Draining reports whether BeginDrain was called.
func (p *Proxy) Draining() bool { return p.draining.Load() }

// OverloadMode names the proxy's current overload state: "normal",
// "degraded", "shedding", or "draining" during graceful shutdown.
func (p *Proxy) OverloadMode() string {
	if p.draining.Load() {
		return "draining"
	}
	return p.gov.Mode()
}

// OverloadLevel reports the governor's current prefetch level (0..1).
func (p *Proxy) OverloadLevel() float64 { return p.gov.Level() }

// retryAfter derives the Retry-After hint stamped on every shed (503) from
// the current overload mode: a draining instance is leaving and clients
// should stay away longest; a shedding one needs breathing room; a gate shed
// under otherwise-normal load clears fastest.
func (p *Proxy) retryAfter() string {
	switch p.OverloadMode() {
	case "draining":
		return "5"
	case "shedding":
		return "2"
	default:
		return "1"
	}
}

// AdmissionCounts reports lifetime admitted and shed client requests.
func (p *Proxy) AdmissionCounts() (admitted, shed int64) { return p.gate.counts() }

// GovernorSuppressed reports prefetches the governor declined to issue.
func (p *Proxy) GovernorSuppressed() int64 { return p.govSuppressed.Load() }

// SchedMetrics exposes the prefetch scheduler's per-class counters.
func (p *Proxy) SchedMetrics() sched.Metrics { return p.sched.Metrics() }

// ClientLatencyQuantile reports the q-quantile of client latencies over the
// last closed governor interval, bucket-interpolated.
func (p *Proxy) ClientLatencyQuantile(q float64) time.Duration {
	return p.clientLat.Quantile(q)
}

// queueFrac converts a prefetch queue length to a fill fraction (0..1).
func (p *Proxy) queueFrac(n int) float64 {
	if c := p.sched.Cap(); c > 0 {
		return float64(n) / float64(c)
	}
	return 0
}

// observeClient folds one client-visible latency into the window. The
// request path stops there unless the governor's next adjustment is due;
// then exactly one request closes the interval and hands the governor its
// aggregate signals: the window's p95 and the peak queue fill since the
// previous sample.
func (p *Proxy) observeClient(d time.Duration) {
	p.clientLat.hist.Observe(d)
	now := p.opts.Now()
	if !p.gov.Due(now) || !p.clientLat.mu.TryLock() {
		return
	}
	defer p.clientLat.mu.Unlock()
	if !p.gov.Due(now) {
		return // another request closed this interval first
	}
	win := p.clientLat.rollLocked()
	p.gov.Observe(p.queueFrac(p.sched.TakePeak()), win.Quantile(0.95), false)
}

// effectiveChainDepth scales the configured chain depth by the governor
// level, so under pressure the proxy sheds the deep, most speculative end of
// each dependency chain first.
func (p *Proxy) effectiveChainDepth() int {
	level := p.gov.Level()
	if level >= 1 {
		return p.opts.MaxChainDepth
	}
	return int(math.Round(level * float64(p.opts.MaxChainDepth)))
}

// Close stops the prefetch workers, the cache sweeper, and (when
// persistence is enabled) the snapshot loop and disk-tier spill worker —
// the tier drains its write-behind backlog before Close returns. Ordering:
// producers of cache writes (the scheduler) stop before the store, and the
// store before the tier it spills into.
func (p *Proxy) Close() {
	// Cluster probing/rebalancing stops first: a rebalance firing into a
	// closing scheduler or store would race the teardown below.
	if p.cluster != nil {
		p.cluster.c.Close()
	}
	p.sched.Close()
	p.store.Close()
	p.stopPersist()
}

func (p *Proxy) user(key string) *user {
	p.mu.Lock()
	defer p.mu.Unlock()
	u, ok := p.users[key]
	if !ok {
		if len(p.users) >= p.opts.MaxUsers {
			p.evictIdleUserLocked()
		}
		u = &user{
			key:       key,
			exemplars: map[string]*exemplar{},
			pending:   map[string][]pendingInstance{},
		}
		p.users[key] = u
	}
	u.lastSeen = p.opts.Now()
	return u
}

// evictIdleUserLocked drops the least recently seen user and their cached
// responses (p.mu held; the store has its own locks).
func (p *Proxy) evictIdleUserLocked() {
	var oldestKey string
	var oldest time.Time
	for k, u := range p.users {
		if oldestKey == "" || u.lastSeen.Before(oldest) {
			oldestKey, oldest = k, u.lastSeen
		}
	}
	if oldestKey != "" {
		delete(p.users, oldestKey)
		p.store.DropScope(oldestKey)
	}
}

// PruneUsers drops user states idle for longer than maxIdle, with their
// cached responses, and returns how many were removed. Long-running
// deployments call this periodically.
func (p *Proxy) PruneUsers(maxIdle time.Duration) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	cutoff := p.opts.Now().Add(-maxIdle)
	n := 0
	for k, u := range p.users {
		if u.lastSeen.Before(cutoff) {
			delete(p.users, k)
			p.store.DropScope(k)
			n++
		}
	}
	return n
}

// UserCount reports the number of tracked user states.
func (p *Proxy) UserCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.users)
}

// ServeHTTP handles one proxied client request (Figure 10's flow: serve
// fresh prefetched responses directly, otherwise forward, then feed the
// transaction into dynamic learning).
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Origin-form requests (no absolute URI) address the proxy itself
	// rather than an upstream: serve the small operational surface. No span:
	// admin traffic is not part of the accelerated request population.
	if r.URL.Host == "" {
		p.serveStatus(w, r)
		return
	}
	// Every proxied request gets exactly one span; the deferred Finish seals
	// it on every return path below (pooled — drop all references after).
	sp := p.spans.Start()
	defer sp.Finish()
	// Lifecycle draining: refuse new proxied work so a graceful shutdown can
	// wait out only the requests already in flight. Status endpoints above
	// stay available for orchestrators watching the drain.
	if p.draining.Load() {
		sp.EndStage(obs.StageAdmission)
		sp.SetOutcome(obs.OutcomeShed)
		w.Header().Set("Retry-After", p.retryAfter())
		http.Error(w, "proxy: draining", http.StatusServiceUnavailable)
		return
	}
	// Admission control: bound concurrent client work. Arrivals past the
	// limit wait briefly for a slot and are shed with a 503 otherwise; a shed
	// is also the strongest overload signal the prefetch governor gets.
	if !p.gate.acquire(r.Context()) {
		sp.EndStage(obs.StageAdmission)
		sp.SetOutcome(obs.OutcomeShed)
		// A shed marks the interval overloaded whatever the p95.
		p.gov.Observe(p.queueFrac(p.sched.QueueLen()), 0, true)
		w.Header().Set("Retry-After", p.retryAfter())
		http.Error(w, "proxy: overloaded", http.StatusServiceUnavailable)
		return
	}
	defer p.gate.release()
	sp.EndStage(obs.StageAdmission)
	userKey := p.opts.UserKey(r)
	sp.SetUser(userKey)
	req, err := httpmsg.FromHTTPLimited(r, p.maxBody)
	if err != nil {
		sp.EndStage(obs.StageParse)
		sp.SetOutcome(obs.OutcomeError)
		if errors.Is(err, httpmsg.ErrBodyTooLarge) {
			http.Error(w, "proxy: request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "proxy: malformed request: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	// The user, cluster, and budget tags are proxy addressing metadata, not
	// application payload: record what they say, then strip them here —
	// before any routing decision — so no path (relay, fallback, origin,
	// error) can leak them onward or let them perturb exact-match keys.
	_, hopped := req.GetHeader(clusterHopHeader)
	bgt := p.acceptBudget(req)
	req.DeleteHeader(userHeader)
	req.DeleteHeader(clusterHopHeader)
	// Cluster routing: a request for a user this instance does not own is
	// relayed to the owner, so the user's learned state accretes in exactly
	// one place. The hop header caps relaying at one hop — a forwarded
	// request is always served where it lands, even if membership views
	// momentarily disagree about ownership. Relay failure of any kind falls
	// through to local serving: topology trouble must never fail a
	// foreground request.
	if p.cluster != nil {
		if hopped {
			p.cluster.receivedForwards.Add(1)
		} else if addr, self := p.cluster.c.Owner(userKey); !self {
			if p.clusterRelay(r.Context(), bgt, sp, w, req, userKey, addr) {
				return
			}
		}
	}
	u := p.user(userKey)
	key := req.CanonicalKey()
	sp.EndStage(obs.StageParse)
	start := p.opts.Now()

	if entry, shared := p.lookup(u, key); entry != nil {
		sp.EndStage(obs.StageCache)
		sp.SetSig(entry.SigID)
		// R3: the prefetched request was byte-identical (canonical key
		// equality), so the client receives exactly the origin's bytes —
		// true even across users for shared-tier hits. writeBuffered slices
		// 206s locally when the client asked for a Range of the entity.
		p.stats.CountHit(entry.SigID, int64(len(entry.Resp.Body)), p.stats.RespTime(entry.SigID), entry.FirstUse(), shared)
		p.observePolicy(u.key, entry.SigID)
		p.writeBuffered(w, req, entry.Resp)
		sp.EndStage(obs.StageWrite)
		p.observeTTFB(start)
		if entry.Refreshed {
			sp.SetOutcome(obs.OutcomeRefreshHit)
		} else {
			sp.SetOutcome(obs.OutcomePrefetchHit)
		}
		p.observeClient(p.opts.Now().Sub(start))
		return
	}
	sp.EndStage(obs.StageCache)

	// The match runs before the origin round trip now: it decides whether
	// this miss becomes a flight (spooled, capturable, attachable) or a plain
	// passthrough.
	var matched []*sig.Signature
	if !p.opts.DisablePrefetch {
		matched = p.opts.Graph.MatchRequest(req)
	}

	// Cluster peer fill: a shared-eligible miss asks ring siblings for the
	// entry before paying an origin round trip. Only cacheable targets
	// qualify — signatures someone prefetches (they have dependency edges
	// in) and whose responses are user-agnostic. The fill Puts into the
	// local shared tier, so it both answers this request and warms the
	// instance.
	if p.cluster != nil && len(matched) > 0 &&
		len(p.opts.Graph.DepsInto(matched[0].ID)) > 0 && p.sharedEligible(matched[0], req) {
		if entry := p.clusterPeerFill(r.Context(), key, false, bgt); entry != nil {
			sp.SetSig(entry.SigID)
			p.stats.CountHit(entry.SigID, int64(len(entry.Resp.Body)), p.stats.RespTime(entry.SigID), entry.FirstUse(), true)
			p.observePolicy(u.key, entry.SigID)
			p.writeBuffered(w, req, entry.Resp)
			sp.EndStage(obs.StageWrite)
			p.observeTTFB(start)
			sp.SetOutcome(obs.OutcomePeerHit)
			p.observeClient(p.opts.Now().Sub(start))
			return
		}
	}

	if len(matched) == 0 {
		// Unmatched (or prefetch-disabled): forward verbatim — Range header
		// and all — streaming the body straight through, never spooled.
		p.forwardPassthrough(r.Context(), bgt, sp, w, req, start)
		return
	}

	// Matched: this fetch is a flight. The flight key lives on the same
	// scope the prefetch path uses, so a foreground miss, a prefetch worker,
	// and any number of concurrent clients converge on one origin fetch.
	scope := u.key
	if p.sharedEligible(matched[0], req) {
		scope = cache.SharedScope
	}
	fl, owner := p.openFlight(cache.IssueKey(scope, key))
	if !owner {
		if p.attachFlight(w, r.Context().Done(), sp, fl, req, start) {
			p.streamStats.attachHits.Add(1)
			p.observePolicy(u.key, matched[0].ID)
			sp.SetSig(matched[0].ID)
			sp.SetOutcome(obs.OutcomeAttachHit)
			p.observeClient(p.opts.Now().Sub(start))
			return
		}
		// The flight failed, answered non-200, or slid past this client's
		// range: fetch independently, without opening a second flight (a
		// failing key must not stack spools).
		p.forwardPassthrough(r.Context(), bgt, sp, w, req, start)
		return
	}
	p.runFlight(r.Context(), bgt, sp, w, u, req, matched, cache.IssueKey(scope, key), fl, start)
}

// forwardPassthrough forwards one request on the client's behalf and streams
// the answer through untouched: no spool, no capture, no learning. The
// request context propagates client disconnects, the remaining latency
// budget (when set) bounds the whole origin exchange, and the retry
// middleware gives idempotent requests one fast retry before the client
// sees a 502.
func (p *Proxy) forwardPassthrough(ctx context.Context, bgt reqBudget, sp *obs.Span, w http.ResponseWriter, req *httpmsg.Request, start time.Time) {
	octx, ocancel := bgt.bound(ctx, p.opts.Now(), 0)
	resp, err := p.fwdUp.RoundTrip(octx, req)
	if err != nil {
		ocancel()
		sp.EndStage(obs.StageOrigin)
		sp.SetOutcome(obs.OutcomeError)
		http.Error(w, "proxy: upstream: "+err.Error(), http.StatusBadGateway)
		p.observeClient(p.opts.Now().Sub(start))
		return
	}
	// A streaming body keeps the origin exchange open past this function:
	// the bound context must live until the body is finished.
	if resp.Streaming() {
		resp.OnBodyClose(ocancel)
	} else {
		ocancel()
	}
	sp.EndStage(obs.StageOrigin)
	elapsed := p.opts.Now().Sub(start)
	p.observeTTFB(start)
	resp.WriteTo(w)
	sp.EndStage(obs.StageWrite)
	sp.SetOutcome(obs.OutcomeOrigin)
	p.observeClient(elapsed)
}

// runFlight executes the owner side of a foreground flight: fetch the whole
// entity, publish headers to any attachers, pump the body through the spool
// while serving this client from it, then feed the capture into stats and
// learning. fkey names the flight in the registry.
func (p *Proxy) runFlight(ctx context.Context, bgt reqBudget, sp *obs.Span, w http.ResponseWriter, u *user, req *httpmsg.Request, matched []*sig.Signature, fkey string, fl *flight, start time.Time) {
	// A matched live request is history evidence whether it hits or misses;
	// the hit paths observe in ServeHTTP, the miss path observes here.
	p.observePolicy(u.key, matched[0].ID)
	// The origin always sees the whole-entity request: Range is stripped and
	// the 206 (if asked for) is sliced locally from the spool, so the capture
	// stays a complete entity every attacher and the cache can share.
	sent := req
	if rangeHeaderOf(req) != "" {
		sent = req.Clone()
		sent.DeleteHeader("Range")
		sent.DeleteHeader("If-Range")
	}
	octx, ocancel := bgt.bound(ctx, p.opts.Now(), 0)
	resp, err := p.fwdUp.RoundTrip(octx, sent)
	if err != nil {
		ocancel()
		sp.EndStage(obs.StageOrigin)
		sp.SetOutcome(obs.OutcomeError)
		p.failFlight(fkey, fl, err)
		http.Error(w, "proxy: upstream: "+err.Error(), http.StatusBadGateway)
		p.observeClient(p.opts.Now().Sub(start))
		return
	}
	if resp.Streaming() {
		resp.OnBodyClose(ocancel)
	} else {
		ocancel()
	}
	sp.EndStage(obs.StageOrigin)
	elapsed := p.opts.Now().Sub(start)
	fl.status = resp.Status
	fl.header = resp.Header
	fl.sigID = matched[0].ID
	close(fl.ready)
	// Resolve this client's own view (Range against a not-yet-known total)
	// and pin a reader BEFORE the pump starts: pre-pump, no offset can have
	// been trimmed away, so the owner is always servable from its own flight.
	off, length, contentRange, ranged, _ := flightRange(req, fl)
	rd, rerr := fl.sp.ReaderAt(off)
	go p.pump(fl, resp)
	if rerr == nil {
		p.serveSpool(w, sp, fl, rd, length, contentRange, ranged, start)
		rd.Close()
	}
	sp.SetSig(matched[0].ID)
	sp.SetOutcome(obs.OutcomeOrigin)
	p.observeClient(elapsed)

	// Body accounting and learning happen once the pump finishes. Under-cap
	// bodies always complete into a capture (no backpressure below the cap),
	// even when this client disconnected mid-stream; over-cap bodies are
	// abandoned by the pump as soon as the last reader detaches.
	fl.sp.Wait()
	p.closeFlight(fkey, fl)
	body, ok := fl.sp.Bytes()
	if !ok && fl.sp.Overflowed() {
		p.streamStats.bodyOverflows.Add(1)
	}
	p.stats.ObserveRespTime(matched[0].ID, elapsed)
	p.stats.CountMiss(matched[0].ID, fl.sp.Size())
	if ok {
		lresp := &httpmsg.Response{Status: fl.status, Header: fl.header, Body: body}
		// Ambiguous URI patterns (fully dynamic URLs look identical) mean one
		// live transaction can instantiate several signatures; learn through
		// every match so each keeps a usable exemplar.
		for _, s := range matched {
			p.learn(u, s, req, lresp, 0, true)
		}
		sp.EndStage(obs.StageLearn)
	}
	fl.sp.Discard()
}

// serveStatus answers direct (non-proxied) requests with the versioned
// admin API (/appx/v1/*) — the operational surface of the proxy process.
// The pre-versioning paths survive as deprecated redirecting aliases.
func (p *Proxy) serveStatus(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/", "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Prefetchable serves from the graph's cached adjacency index — a
		// map read, not a Deps rescan, so health probes stay O(1).
		fmt.Fprintf(w, "appx proxy: %d signatures, %d prefetchable\n",
			len(p.opts.Graph.Sigs), len(p.opts.Graph.Prefetchable()))
	case adminv1.PathStats:
		writeJSON(w, p.statsV1())
	case adminv1.PathHealth:
		writeJSON(w, p.healthV1())
	case adminv1.PathSpans:
		n := 64
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		writeJSON(w, p.spansV1(n))
	case adminv1.PathMetrics:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.reg.WritePrometheus(w)
	case adminv1.PathClusterEntry:
		p.serveClusterEntry(w, r)
	case adminv1.LegacyPathStats:
		redirectDeprecated(w, r, adminv1.PathStats)
	case adminv1.LegacyPathHealth:
		redirectDeprecated(w, r, adminv1.PathHealth)
	default:
		http.Error(w, "appx proxy: unknown endpoint (this is a forward proxy; configure it as such)", http.StatusNotFound)
	}
}

// redirectDeprecated 307-redirects a pre-versioning admin path to its
// /appx/v1 successor. 307 keeps the method; the Deprecation header (RFC
// 9745) and successor-version Link tell clients what to migrate to.
func redirectDeprecated(w http.ResponseWriter, r *http.Request, successor string) {
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
	http.Redirect(w, r, successor, http.StatusTemporaryRedirect)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// statsV1 assembles the typed /appx/v1/stats body.
func (p *Proxy) statsV1() adminv1.StatsResponse {
	snap := p.stats.Snapshot()
	mt := p.opts.Graph.MatchTelemetry()
	return adminv1.StatsResponse{
		MatchIndex: adminv1.MatchIndex{
			Lookups:        mt.Lookups,
			ExactHits:      mt.ExactHits,
			TrieCandidates: mt.TrieCandidates,
			RegexEvals:     mt.RegexEvals,
			RegexMatches:   mt.RegexMatches,
		},
		Hits:                 snap.Hits,
		SharedHits:           snap.SharedHits,
		Misses:               snap.Misses,
		Prefetches:           snap.Prefetches,
		HitRatio:             snap.HitRatio(),
		SharedHitRatio:       snap.SharedHitRatio(),
		DataUsage:            snap.NormalizedDataUsage(),
		UsedPrefetchRatio:    snap.UsedPrefetchRatio(),
		SavedLatencyMs:       snap.SavedLatency.Milliseconds(),
		Users:                p.UserCount(),
		PrefetchQueue:        p.sched.QueueLen(),
		DataUsedBytes:        p.DataUsedBytes(),
		CacheResidentBytes:   p.store.ResidentBytes(),
		Retries:              snap.Retries,
		PrefetchErrors:       snap.PrefetchErrors,
		SuppressedPrefetches: snap.PrefetchSuppressed,
		Overload:             p.overloadV1(),
		Sched:                p.schedV1(),
		Requests:             p.requestsV1(),
		Persist:              p.persistV1(),
		Cluster:              p.clusterV1(),
		Budget:               p.budgetV1(),
		Policy:               p.policyV1(),
	}
}

// budgetV1 assembles the typed budget block of /appx/v1/stats.
func (p *Proxy) budgetV1() adminv1.Budget {
	return adminv1.Budget{
		Enabled:   p.opts.RequestBudget > 0,
		LimitMs:   p.opts.RequestBudget.Milliseconds(),
		Inherited: p.budget.inherited.Load(),
		Clamped:   p.budget.clamped.Load(),
		Exhausted: p.budget.exhausted.Load(),
	}
}

// healthV1 assembles the typed /appx/v1/health body: the resilience layer's
// view of the origin fleet — per-host breaker states, suspended prefetch
// signatures, retry and suppression counters. "degraded" means some work is
// currently being shed.
func (p *Proxy) healthV1() adminv1.HealthResponse {
	now := p.opts.Now()
	degraded := false

	breakers := map[string]adminv1.Breaker{}
	for host, b := range p.breakers.Snapshot() {
		breakers[host] = adminv1.Breaker{
			State:               b.State.String(),
			ConsecutiveFailures: b.ConsecutiveFailures,
			OpenForMs:           b.OpenFor.Milliseconds(),
		}
		if b.State != resilience.Closed {
			degraded = true
		}
	}

	suspended := map[string]adminv1.SuspendedSignature{}
	p.resMu.Lock()
	for id, b := range p.sigFail {
		if now.Before(b.until) {
			suspended[id] = adminv1.SuspendedSignature{
				ConsecutiveFailures: b.consecutive,
				ResumeInMs:          b.until.Sub(now).Milliseconds(),
			}
			degraded = true
		}
	}
	p.resMu.Unlock()

	// Overload mode folds into health: a draining or shedding proxy is not
	// "ok" even when every origin is.
	if mode := p.OverloadMode(); mode != "normal" {
		degraded = true
	}
	status := "ok"
	if degraded {
		status = "degraded"
	}
	snap := p.stats.Snapshot()
	cm := p.store.Metrics()
	return adminv1.HealthResponse{
		Status:               status,
		Breakers:             breakers,
		SuspendedSignatures:  suspended,
		Retries:              snap.Retries,
		PrefetchErrors:       snap.PrefetchErrors,
		SuppressedPrefetches: snap.PrefetchSuppressed,
		PrefetchQueue:        p.sched.QueueLen(),
		DataUsedBytes:        p.DataUsedBytes(),
		Overload:             p.overloadV1(),
		Sched:                p.schedV1(),
		Cache: adminv1.Cache{
			ResidentBytes:  cm.ResidentBytes,
			Entries:        cm.Entries,
			Hits:           cm.Hits,
			Misses:         cm.Misses,
			SharedHits:     cm.SharedHits,
			SharedHitRatio: cm.SharedHitRatio(),
			SharedEntries:  cm.SharedEntries,
			SharedBytes:    cm.SharedBytes,
			Evictions: adminv1.CacheEvictions{
				Expired:     cm.Evictions.Expired,
				Budget:      cm.Evictions.Budget,
				UserBytes:   cm.Evictions.ScopeBytes,
				UserEntries: cm.Evictions.ScopeEntries,
				Replaced:    cm.Evictions.Replaced,
				UserDropped: cm.Evictions.Dropped,
			},
		},
	}
}

// spansV1 assembles the typed /appx/v1/spans body from the recorder's ring.
func (p *Proxy) spansV1(n int) adminv1.SpansResponse {
	recent := p.spans.Recent(n)
	out := adminv1.SpansResponse{Total: p.spans.Total(), Spans: make([]adminv1.Span, 0, len(recent))}
	for _, s := range recent {
		sp := adminv1.Span{
			ID:      s.ID,
			Start:   s.Start,
			WallMs:  float64(s.Wall) / float64(time.Millisecond),
			Outcome: s.Outcome.String(),
			SigID:   s.SigID,
			User:    s.User,
		}
		for st, d := range s.Stages {
			if d > 0 {
				if sp.StageMs == nil {
					sp.StageMs = map[string]float64{}
				}
				sp.StageMs[obs.Stage(st).String()] = float64(d) / float64(time.Millisecond)
			}
		}
		out.Spans = append(out.Spans, sp)
	}
	return out
}

// overloadV1 is the admission/governor block shared by stats and health.
func (p *Proxy) overloadV1() adminv1.Overload {
	admitted, shedded := p.gate.counts()
	return adminv1.Overload{
		Mode:               p.OverloadMode(),
		Level:              p.gov.Level(),
		Admitted:           admitted,
		AdmissionShed:      shedded,
		GovernorSuppressed: p.govSuppressed.Load(),
		ClientP50Ms:        p.clientLat.Quantile(0.50).Milliseconds(),
		ClientP95Ms:        p.clientLat.Quantile(0.95).Milliseconds(),
		ClientP99Ms:        p.clientLat.Quantile(0.99).Milliseconds(),
	}
}

// schedV1 is the per-class scheduler block shared by stats and health.
func (p *Proxy) schedV1() adminv1.Sched {
	m := p.sched.Metrics()
	classBlock := func(c sched.ClassMetrics) adminv1.SchedClass {
		return adminv1.SchedClass{
			Submitted:      c.Submitted,
			Ran:            c.Ran,
			DroppedFull:    c.DroppedFull,
			DroppedClosed:  c.DroppedClosed,
			DroppedExpired: c.DroppedExpired,
		}
	}
	return adminv1.Sched{
		Queue:      p.sched.QueueLen(),
		Capacity:   p.sched.Cap(),
		Panics:     m.Panics,
		Foreground: classBlock(m.Foreground),
		Shallow:    classBlock(m.Shallow),
		Deep:       classBlock(m.Deep),
	}
}

// requestsV1 is the span-derived request-lifecycle block of /appx/v1/stats.
func (p *Proxy) requestsV1() adminv1.Requests {
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := adminv1.Requests{
		Total:      p.spans.Total(),
		Outcomes:   map[string]adminv1.OutcomeStats{},
		StageP95Ms: map[string]float64{},
	}
	for o := obs.Outcome(0); o < obs.NumOutcomes; o++ {
		n := p.spans.OutcomeCount(o)
		if n == 0 {
			continue
		}
		out.Outcomes[o.String()] = adminv1.OutcomeStats{
			Count: n,
			P50Ms: toMs(p.spans.WallQuantile(o, 0.50)),
			P90Ms: toMs(p.spans.WallQuantile(o, 0.90)),
			P95Ms: toMs(p.spans.WallQuantile(o, 0.95)),
			P99Ms: toMs(p.spans.WallQuantile(o, 0.99)),
		}
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if h := p.spans.StageHistogram(st); h != nil && h.Count() > 0 {
			out.StageP95Ms[st.String()] = toMs(h.Quantile(0.95))
		}
	}
	return out
}

// sigSuspended reports whether a signature is inside its failure-backoff
// suspension window.
func (p *Proxy) sigSuspended(sigID string) bool {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	b := p.sigFail[sigID]
	return b != nil && p.opts.Now().Before(b.until)
}

// recordSigFailure notes one consecutive prefetch failure for a signature;
// at PrefetchFailureLimit the signature is suspended, with the window
// doubling per further failure up to PrefetchBackoffMax.
func (p *Proxy) recordSigFailure(sigID string) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	b := p.sigFail[sigID]
	if b == nil {
		b = &sigBackoff{}
		p.sigFail[sigID] = b
	}
	b.consecutive++
	if b.consecutive < p.res.PrefetchFailureLimit {
		return
	}
	d := time.Duration(p.res.PrefetchBackoffBase)
	max := time.Duration(p.res.PrefetchBackoffMax)
	for i := p.res.PrefetchFailureLimit; i < b.consecutive && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b.until = p.opts.Now().Add(d)
}

// recordSigSuccess clears a signature's failure streak.
func (p *Proxy) recordSigSuccess(sigID string) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	delete(p.sigFail, sigID)
}

// lookup probes the user's cache scope, then the cross-user shared tier,
// for a fresh entry; shared reports which tier answered. Expired entries
// are dropped by the store at lookup (invariant: no response older than its
// expiration time is ever served) and optionally re-prefetched.
func (p *Proxy) lookup(u *user, key string) (entry *cache.Entry, shared bool) {
	if p.opts.DisablePrefetch {
		return nil, false
	}
	if e, fresh := p.store.Get(u.key, key); fresh {
		return e, false
	} else if e != nil {
		p.refreshExpired(u, e)
	}
	if !p.cacheCfg.DisableSharedTier {
		if e, fresh := p.store.Get(cache.SharedScope, key); fresh {
			return e, true
		} else if e != nil {
			p.refreshExpired(u, e)
		}
	}
	return nil, false
}

// refreshExpired re-issues the prefetch behind an entry found expired at
// lookup, keeping hot entries warm (Options.RefreshExpired).
func (p *Proxy) refreshExpired(u *user, e *cache.Entry) {
	if !p.opts.RefreshExpired || e.Req == nil {
		return
	}
	// A refresh renews an entry a client is demonstrably using right now, so
	// it rides in the foreground class and survives overload shedding. The
	// entry (and its request) may be shared across users hitting the same
	// key; Clone so the canonical-key memoization stays goroutine-local.
	if s := p.opts.Graph.Sig(e.SigID); s != nil {
		p.maybePrefetch(u, s, e.Req.Clone(), 0, sched.ClassForeground)
	}
}

// sharedEligible decides whether a reconstructed request may cache once
// for all users: the signature's patterns must be free of per-user runtime
// wildcards, and the materialized request (which carries the exemplar's
// extra live headers) must not smell of per-user state. The header half of
// the rule lives in the policy package (policy.SharedEligible) with the
// rest of the prefetch decision logic.
func (p *Proxy) sharedEligible(s *sig.Signature, req *httpmsg.Request) bool {
	if p.cacheCfg.DisableSharedTier || !s.UserAgnostic() {
		return false
	}
	return policy.SharedEligible(req.Header)
}

// learn runs the Figure-6 flowchart for one completed transaction:
// successor targets update the exemplar and release pending instances;
// predecessor targets spawn successor instances.
func (p *Proxy) learn(u *user, s *sig.Signature, req *httpmsg.Request, resp *httpmsg.Response, depth int, live bool) {
	// Successor routine (learning target is a successor): adapt to the most
	// recent condition — only from live client traffic, never from our own
	// synthetic prefetch requests.
	if live && len(p.opts.Graph.DepsInto(s.ID)) > 0 {
		if ex := learnExemplar(s, req); ex != nil {
			u.mu.Lock()
			u.exemplars[s.ID] = ex
			released := u.pending[s.ID]
			delete(u.pending, s.ID)
			u.mu.Unlock()
			for _, pi := range released {
				p.instantiate(u, pi.s, pi.pred, pi.combo, pi.depth)
			}
		}
	}

	// Predecessor routine: extract dependency values and build successor
	// instances.
	if resp.Status != http.StatusOK {
		return
	}
	succIDs := p.opts.Graph.Successors(s.ID)
	if len(succIDs) == 0 {
		return
	}
	doc, err := resp.JSON()
	if err != nil {
		return
	}
	// Build the candidate batch in dependency-graph order, then let the
	// policy decide which survive (Keep) and in what order they are
	// attempted. Only Keep and the output order are honoured here: the
	// execution gates re-run at issue time inside maybePrefetch, because an
	// instance can park awaiting an exemplar for arbitrarily long between
	// fan-out and issue.
	type fanout struct {
		succ  *sig.Signature
		paths []string
	}
	var cands []policy.Candidate
	var aux []fanout
	for _, succID := range succIDs {
		succ := p.opts.Graph.Sig(succID)
		if succ == nil {
			continue
		}
		cpol := p.opts.Config.Policy(succ.Hash())
		if cpol != nil && !cpol.Prefetch {
			continue
		}
		if cpol != nil && !cpol.Condition.Eval(doc) {
			continue
		}
		paths := depPaths(succ, s.ID)
		if len(paths) == 0 {
			continue
		}
		cands = append(cands, policy.Candidate{
			SigID: succID,
			Depth: depth,
			Index: len(aux),
			Prior: p.opts.Config.EffectiveProbability(cpol) * p.opts.Config.UserScale(u.key),
		})
		aux = append(aux, fanout{succ: succ, paths: paths})
	}
	if len(cands) == 0 {
		return
	}
	for _, d := range p.rankCandidates(u.key, s.ID, cands) {
		if !d.Keep {
			p.countSkip(d.KeepReason)
			continue
		}
		fo := aux[d.Index]
		combos := depCombos(doc, fo.paths)
		if len(combos) == 0 {
			p.countSkip(skipNoDepValues)
			continue
		}
		for _, combo := range combos {
			p.instantiate(u, fo.succ, s.ID, combo, depth)
		}
	}
}

// instantiate materializes one successor instance, parking it when run-time
// values are still missing, and schedules the prefetch when ready.
func (p *Proxy) instantiate(u *user, s *sig.Signature, pred string, combo map[string]string, depth int) {
	u.mu.Lock()
	ex := u.exemplars[s.ID]
	u.mu.Unlock()

	// Every signature waits for at least one live example before its
	// instances are issued: the client's HTTP stack contributes run-time
	// headers no static pattern can predict, and the exact-match guarantee
	// (R2) requires reproducing them.
	if ex == nil {
		u.mu.Lock()
		if len(u.pending[s.ID]) < p.opts.MaxPendingPerSig {
			u.pending[s.ID] = append(u.pending[s.ID], pendingInstance{s: s, pred: pred, combo: combo, depth: depth})
			u.mu.Unlock()
			return
		}
		u.mu.Unlock()
		p.countSkip(skipPendingFull)
		return
	}
	req, ok := materialize(s, pred, combo, ex)
	if !ok {
		// The exemplar could not resolve every run-time value (stale wilds,
		// deps on other predecessors): the candidate silently vanishing here
		// would pollute policy precision numbers, so count it.
		p.countSkip(skipNoExemplar)
		return
	}
	// Depth maps to shed priority: chain tails are the most speculative work
	// the proxy does, so they go in the class that sheds first.
	class := sched.ClassShallow
	if depth >= p.ovl.DeepDepth {
		class = sched.ClassDeep
	}
	p.maybePrefetch(u, s, req, depth, class)
}

// maybePrefetch applies policy (probability, data budget, dedup) and
// overload control (governor level, class queue shares, enqueue deadline),
// then schedules the prefetch.
func (p *Proxy) maybePrefetch(u *user, s *sig.Signature, req *httpmsg.Request, depth int, class sched.Class) {
	cpol := p.opts.Config.Policy(s.Hash())
	// The policy evaluates the execution gates — governor shedding/level,
	// signature failure backoff, breaker readiness — over the concrete
	// candidate. All hooks are side-effect-free reads, so evaluating them
	// before the probability draw below leaves the draw stream unchanged.
	d := p.rankOne(u.key, policy.Candidate{
		SigID:      s.ID,
		Host:       req.Host,
		Depth:      depth,
		Foreground: class == sched.ClassForeground,
		Prior:      p.opts.Config.EffectiveProbability(cpol) * p.opts.Config.UserScale(u.key),
	})
	if !d.Allow && d.AllowReason == policy.ReasonShedding {
		p.govSuppressed.Add(1)
		p.stats.CountPrefetchSuppressed(s.ID)
		return
	}
	if d.Prob <= 0 || (d.Prob < 1 && p.opts.Rand() >= d.Prob) {
		return
	}
	if budget := p.opts.Config.DataBudgetBytes; budget > 0 && p.dataUsed.Used(p.opts.Now()) >= budget {
		return
	}
	// Resilience gates: a suspended signature (consecutive failures) or a
	// host whose breaker is not admitting traffic stops producing prefetch
	// work here, before it occupies queue slots, workers, or data budget.
	if !d.Allow {
		p.stats.CountPrefetchSuppressed(s.ID)
		return
	}
	expiry := p.opts.Config.Expiration(cpol)
	key := req.CanonicalKey()
	// Shared-eligible requests prefetch into the cross-user tier; TryIssue
	// then singleflights the fetch across every user wanting this key.
	scope := u.key
	if p.sharedEligible(s, req) {
		scope = cache.SharedScope
	}
	if !p.store.TryIssue(scope, key, expiry) {
		return
	}
	task := &sched.Task{
		SigID: s.ID,
		Class: class,
		Run: func() {
			p.runPrefetch(u, s, req, key, scope, expiry, depth, class)
		},
		// Accepted-then-shed (deadline expiry at dispatch, or Close): release
		// the dedup claim so a later, fresher instance can re-issue the fetch.
		Abandon: func() {
			p.store.CancelIssue(scope, key)
		},
		// A panicking prefetch counts as a prefetch failure: it releases its
		// claim and feeds the signature's backoff, so a reconstruction that
		// reliably panics suspends itself like one that reliably errors.
		OnPanic: func(any) {
			p.store.CancelIssue(scope, key)
			p.stats.CountPrefetchError(s.ID)
			p.recordSigFailure(s.ID)
		},
	}
	if qd := time.Duration(p.ovl.QueueDeadline); qd > 0 {
		task.Deadline = p.opts.Now().Add(qd)
	}
	if !p.sched.Submit(task) {
		p.store.CancelIssue(scope, key)
	}
}

// runPrefetch executes one prefetch: sends the (optionally header-tagged)
// request upstream, caches the response under the clean request's key, and
// feeds the transaction back into learning so dependency chains prefetch
// end-to-end (Figure 3(c)).
func (p *Proxy) runPrefetch(u *user, s *sig.Signature, req *httpmsg.Request, key, scope string, expiry time.Duration, depth int, class sched.Class) {
	if budget := p.opts.Config.DataBudgetBytes; budget > 0 && p.dataUsed.Used(p.opts.Now()) >= budget {
		// Budget re-checked at execution time: instances queued before the
		// budget ran out must not blow past it (C4).
		p.store.CancelIssue(scope, key)
		return
	}
	// Shared-tier prefetches try ring siblings before the origin: the claim
	// this task already holds is the cluster flight, so the fill neither
	// re-claims nor releases on miss (the origin fetch below still owns it).
	// A peer hit counts as a zero-byte prefetch — the entry is as warm as a
	// fetched one but cost no origin traffic.
	if p.cluster != nil && scope == cache.SharedScope {
		// Parent on the cluster context, not Background: BeginDrain cancels
		// it, so background fills die with the drain instead of waiting out
		// PrefetchTimeout.
		ctx, cancel := context.WithTimeout(p.cluster.c.Context(), time.Duration(p.res.PrefetchTimeout))
		e := p.clusterPeerFill(ctx, key, true, reqBudget{})
		cancel()
		if e != nil {
			p.stats.CountPrefetch(s.ID, 0)
			return
		}
	}
	sent := req
	cpol := p.opts.Config.Policy(s.Hash())
	if cpol != nil && len(cpol.AddHeader) > 0 {
		sent = req.Clone()
		for _, h := range cpol.AddHeader {
			sent.Header = append(sent.Header, httpmsg.Field{Key: h.Key, Value: h.Value})
		}
	}
	// The prefetch is a flight too: foreground misses for the same key
	// attach to it instead of paying their own origin round trip. And when a
	// foreground fetch already owns the flight, this worker rides it the
	// other way: wait for the shared fetch and cache its capture under the
	// claim this task holds.
	fkey := cache.IssueKey(scope, key)
	fl, owner := p.openFlight(fkey)
	if !owner {
		p.adoptFlight(fl, s, req, key, scope, expiry, class)
		return
	}
	// Bound the whole round trip — every retry attempt included — so a
	// stalled origin (netem-style) cannot pin this worker past the
	// deadline; the retry layer derives its per-attempt contexts from ours.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(p.res.PrefetchTimeout))
	start := p.opts.Now()
	resp, err := p.preUp.RoundTrip(ctx, sent)
	if err != nil {
		cancel()
		p.failFlight(fkey, fl, err)
		p.store.CancelIssue(scope, key)
		if errors.Is(err, resilience.ErrOpen) {
			// The breaker tripped between queueing and execution; this is
			// suppression, not a fresh origin failure.
			p.stats.CountPrefetchSuppressed(s.ID)
			return
		}
		p.stats.CountPrefetchError(s.ID)
		p.recordSigFailure(s.ID)
		return
	}
	fl.status = resp.Status
	fl.header = resp.Header
	fl.sigID = s.ID
	close(fl.ready)
	// The worker streams the body through the spool inline: attachers read
	// as bytes arrive, and an over-cap body with nobody attached is
	// abandoned mid-stream (consume-or-cancel) instead of read to EOF.
	p.pump(fl, resp)
	cancel()
	p.closeFlight(fkey, fl)
	body, captured := fl.sp.Bytes()
	sz := fl.sp.Size()
	p.stats.ObserveRespTime(s.ID, p.opts.Now().Sub(start))
	p.stats.CountPrefetch(s.ID, sz)
	p.dataUsed.Add(p.opts.Now(), sz)
	if resp.Status != http.StatusOK {
		// The origin rejected our reconstruction; do not cache errors
		// (R3: never alter app behaviour with synthetic failures). Clear the
		// dedup claim so the signature's failure backoff — not a stale
		// issued entry — governs when reconstruction is retried.
		p.stats.CountPrefetchReject(s.ID)
		p.recordSigFailure(s.ID)
		p.store.CancelIssue(scope, key)
		fl.sp.Discard()
		return
	}
	if !captured {
		// Over the capture cap (or a mid-body stream error): there is no
		// complete entity to cache. Not a signature failure — the origin
		// answered fine; the response is just bigger than the proxy caches.
		if fl.sp.Overflowed() {
			p.streamStats.bodyOverflows.Add(1)
		}
		p.store.CancelIssue(scope, key)
		fl.sp.Discard()
		return
	}
	fl.sp.Discard()
	p.recordSigSuccess(s.ID)
	p.mu.Lock()
	if p.samples == nil {
		p.samples = map[string]*httpmsg.Request{}
	}
	p.samples[s.ID] = req.Clone()
	p.mu.Unlock()
	bresp := &httpmsg.Response{Status: fl.status, Header: fl.header, Body: body}
	p.store.Put(scope, key, &cache.Entry{
		Resp:    bresp,
		Req:     req.Clone(),
		SigID:   s.ID,
		Expires: p.opts.Now().Add(expiry),
		// Foreground-class prefetches are refreshes of entries clients are
		// demonstrably using; hits on them report as refresh-hit.
		Refreshed: class == sched.ClassForeground,
	})

	// Chain continuation: the depth ceiling moved into the policy layer —
	// fan-out candidates at depth+1 are Keep=false (ReasonDepth) beyond the
	// governor-scaled effective chain depth, replacing the old
	// `depth < effectiveChainDepth()` gate here, and each pruned tail is
	// counted instead of silently skipped.
	if !p.opts.DisableChaining {
		p.learn(u, s, req, bresp, depth+1, false)
	}
}

// adoptFlight is the prefetch worker's path when a foreground fetch already
// owns the key's flight: instead of a second origin round trip, the worker
// attaches a reader (pinning the capture against release), drains alongside
// the clients, and Puts the finished capture under the claim this task
// holds. On any shortfall — flight error, non-200, over-cap body — the claim
// is released and the cache stays untouched.
func (p *Proxy) adoptFlight(fl *flight, s *sig.Signature, req *httpmsg.Request, key, scope string, expiry time.Duration, class sched.Class) {
	rd, rerr := fl.sp.ReaderAt(0)
	if rerr != nil {
		// The flight already finished and released its spool; the next
		// request for the key will simply re-issue the prefetch.
		p.store.CancelIssue(scope, key)
		return
	}
	select {
	case <-fl.ready:
	case <-time.After(time.Duration(p.res.PrefetchTimeout)):
		// The owner never published headers (wedged origin); give up the
		// claim rather than pin a worker on someone else's fetch.
		rd.Close()
		p.store.CancelIssue(scope, key)
		return
	}
	// Drain our reader as the body streams: it keeps the pump unblocked (a
	// parked reader at offset 0 would wedge over-cap backpressure) and
	// returns exactly when the writer closes.
	io.Copy(io.Discard, rd)
	body, captured := fl.sp.Bytes()
	rd.Close()
	if fl.err != nil || fl.status != http.StatusOK || !captured {
		p.store.CancelIssue(scope, key)
		return
	}
	p.stats.CountPrefetch(s.ID, 0) // zero-byte: the foreground fetch paid for it
	p.recordSigSuccess(s.ID)
	p.mu.Lock()
	if p.samples == nil {
		p.samples = map[string]*httpmsg.Request{}
	}
	p.samples[s.ID] = req.Clone()
	p.mu.Unlock()
	p.store.Put(scope, key, &cache.Entry{
		Resp:      &httpmsg.Response{Status: fl.status, Header: fl.header, Body: body},
		Req:       req.Clone(),
		SigID:     s.ID,
		Expires:   p.opts.Now().Add(expiry),
		Refreshed: class == sched.ClassForeground,
	})
}

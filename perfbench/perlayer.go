package main

import (
	"time"

	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// perLayer fills the traced run's per-layer metrics. Counters are the
// difference across the traced window; gauges are read after it drained.
// Span timings (proxy.*, origin.*) are wall time at the workload's clock;
// device.* figures are per main interaction in paper milliseconds.
func (r *result) perLayer(p *phase, w *window, sp spanSummary, base *window) {
	b, a := w.before, w.after
	c := &w.client

	var sigs, deps int
	for _, e := range p.envs {
		sigs += len(e.graph.Sigs)
		deps += len(e.graph.Deps)
	}
	r.set("static.analyze_ms", ms(sp.analyze), "ms", len(p.envs))
	r.set("static.signatures", float64(sigs), "count", 0)
	r.set("static.deps", float64(deps), "count", 0)
	r.set("sig.match_ns", matchNanos(p, w), "ns", 0)

	r.set("proxy.serve_p50_ms", ms(pct(sp.serve, 0.50)), "ms", len(sp.serve))
	r.set("proxy.serve_p99_ms", ms(pct(sp.serve, 0.99)), "ms", len(sp.serve))
	r.set("proxy.serve_self_us", us(sp.serveSelfSum)/nonzero(len(sp.serve)), "us", len(sp.serve))

	outcome := func(o string) float64 {
		k := `appx_requests_total{outcome="` + o + `"}`
		return a.prom[k] - b.prom[k]
	}
	var total float64
	for _, o := range []string{"prefetch-hit", "refresh-hit", "shed", "origin", "forwarded", "peer-hit", "error", "attach-hit", "unknown"} {
		total += outcome(o)
	}
	total = max(total, 1)
	r.set("proxy.hit_frac", (outcome("prefetch-hit")+outcome("refresh-hit")+outcome("peer-hit"))/total, "ratio", int(total))
	r.set("proxy.attach_frac", outcome("attach-hit")/total, "ratio", int(total))
	r.set("proxy.origin_frac", outcome("origin")/total, "ratio", int(total))
	r.set("proxy.shed_frac", outcome("shed")/total, "ratio", int(total))
	for _, st := range []string{"admission", "parse", "cache", "origin", "write", "learn", "stream"} {
		sum := `appx_request_stage_seconds_sum{stage="` + st + `"}`
		cnt := `appx_request_stage_seconds_count{stage="` + st + `"}`
		n := a.prom[cnt] - b.prom[cnt]
		r.set("proxy.stage."+st+"_us", (a.prom[sum]-b.prom[sum])*1e6/max(n, 1), "us", int(n))
	}
	r.set("proxy.users", float64(a.users), "count", 0)
	r.set("proxy.governor_level", a.govLevel, "ratio", 0)
	r.set("proxy.governor_suppressed", float64(a.govSuppressed-b.govSuppressed), "count", 0)
	r.set("proxy.admission_shed", float64(a.shed-b.shed), "count", 0)

	issued := a.stats.Prefetches - b.stats.Prefetches
	r.set("prefetch.issued", float64(issued), "count", 0)
	used := 0.0
	if issued > 0 {
		used = float64(a.stats.UsedEntries-b.stats.UsedEntries) / float64(issued)
	}
	r.set("prefetch.used_frac", used, "ratio", issued)
	r.set("prefetch.errors", float64(a.stats.PrefetchErrors-b.stats.PrefetchErrors), "count", 0)

	attempts := sp.fg + sp.pf
	retries := a.stats.Retries - b.stats.Retries
	r.set("origin.fg_fetches", float64(sp.fg), "count", 0)
	r.set("origin.prefetch_fetches", float64(sp.pf), "count", 0)
	r.set("origin.fetch_p50_ms", ms(pct(sp.fetch, 0.50)), "ms", len(sp.fetch))
	r.set("origin.attempts_per_fetch", float64(attempts)/nonzero(attempts-retries), "ratio", attempts)

	r.set("sched.fg.ran", float64(a.sched.Foreground.Ran-b.sched.Foreground.Ran), "count", 0)
	r.set("sched.shallow.ran", float64(a.sched.Shallow.Ran-b.sched.Shallow.Ran), "count", 0)
	r.set("sched.deep.ran", float64(a.sched.Deep.Ran-b.sched.Deep.Ran), "count", 0)
	var full, expired int64
	for _, pair := range [][2]int64{
		{a.sched.Foreground.DroppedFull - b.sched.Foreground.DroppedFull, a.sched.Foreground.DroppedExpired - b.sched.Foreground.DroppedExpired},
		{a.sched.Shallow.DroppedFull - b.sched.Shallow.DroppedFull, a.sched.Shallow.DroppedExpired - b.sched.Shallow.DroppedExpired},
		{a.sched.Deep.DroppedFull - b.sched.Deep.DroppedFull, a.sched.Deep.DroppedExpired - b.sched.Deep.DroppedExpired},
	} {
		full += pair[0]
		expired += pair[1]
	}
	r.set("sched.dropped.full", float64(full), "count", 0)
	r.set("sched.dropped.expired", float64(expired), "count", 0)

	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	r.set("cache.hit_ratio", float64(hits)/nonzero(hits+misses), "ratio", int(hits+misses))
	r.set("cache.shared_hit_frac", float64(a.cache.SharedHits-b.cache.SharedHits)/nonzero(hits), "ratio", int(hits))
	r.set("cache.puts", float64(a.cache.Puts-b.cache.Puts), "count", 0)
	ev, bv := a.cache.Evictions, b.cache.Evictions
	r.set("cache.evict.scope_bytes", float64(ev.ScopeBytes-bv.ScopeBytes), "count", 0)
	r.set("cache.evict.scope_entries", float64(ev.ScopeEntries-bv.ScopeEntries), "count", 0)
	r.set("cache.evict.budget", float64(ev.Budget-bv.Budget), "count", 0)
	r.set("cache.evict.expired", float64(ev.Expired-bv.Expired), "count", 0)
	r.set("cache.resident_mb", float64(a.cache.ResidentBytes)/(1<<20), "MiB", 0)

	r.set("stream.attach_hits", a.prom["appx_flight_attach_total"]-b.prom["appx_flight_attach_total"], "count", 0)
	r.set("stream.chunks_outstanding", a.prom["appx_stream_chunks_outstanding"], "count", 0)

	rn := a.prom["appx_policy_rank_seconds_count"] - b.prom["appx_policy_rank_seconds_count"]
	r.set("policy.rank_us", (a.prom["appx_policy_rank_seconds_sum"]-b.prom["appx_policy_rank_seconds_sum"])*1e6/max(rn, 1), "us", int(rn))

	r.set("device.network_ms", meanMS(c.network), "ms", len(c.network))
	r.set("device.processing_ms", meanMS(c.processing), "ms", len(c.processing))
	r.set("device.txns_per_interaction", float64(c.txns)/nonzero(c.interactions), "count", c.interactions)

	r.set("obs.trace_overhead", w.cpuPerReq()/base.cpuPerReq()-1, "ratio", 0)
}

// matchNanos times sig.Graph.MatchRequest over the requests the window
// sent, after the run, so the figure is free of contention.
func matchNanos(p *phase, w *window) float64 {
	type pair struct {
		g *sig.Graph
		r *httpmsg.Request
	}
	var work []pair
	if p.spec.study {
		graphs := map[string]*sig.Graph{}
		for _, e := range p.envs {
			graphs[e.app.Name] = e.graph
		}
		for _, l := range w.logs {
			for _, o := range l.obs {
				work = append(work, pair{graphs[o.app.Name], o.req})
			}
		}
	} else {
		for _, r := range replayRequests(p.streams) {
			work = append(work, pair{p.envs[0].graph, r})
		}
	}
	if len(work) == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, pr := range work {
			pr.g.MatchRequest(pr.r)
		}
		calls += len(work)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func meanMS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / nonzero(len(ds))
}

// nonzero converts a count to a divisor, mapping 0 to 1.
func nonzero[T int | int64](n T) float64 {
	if n == 0 {
		return 1
	}
	return float64(n)
}

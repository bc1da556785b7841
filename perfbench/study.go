package main

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"appx/internal/apps"
	"appx/internal/device"
	"appx/internal/httpmsg"
	"appx/internal/interp"
	"appx/internal/netem"
	"appx/internal/trace"
)

// Study workloads (feed, chain) replay generated user-study sessions on
// emulated handsets over netem-shaped links. All emulated time — link
// delays, origin compute, render sleeps — runs at studyScale; think times
// shrink by a further thinkSpeed, as in the lab's §6 replications. Reported
// interaction and request latencies are unscaled back to paper milliseconds.
const (
	studyScale = 0.1
	thinkSpeed = 10
	// studyPool sessions are generated per app; a run uses a few dozen.
	studyPool = 256
	// sessionDuration is a third of the paper's 3-minute sessions, so a run
	// sees more users (~40) and more launches.
	sessionDuration = time.Minute
)

// studySessions generates each app's session pool from the seed, in
// balanced order.
func studySessions(envs []*appEnv, seed int64) [][]*trace.Trace {
	per := make([][]*trace.Trace, len(envs))
	for i, e := range envs {
		per[i] = balanced(trace.GenerateStudy(e.app.APK, studyPool, seed*1_000_003+int64(i)*7_919_000, sessionDuration))
	}
	return per
}

// balanced orders a pool of sessions so that every prefix matches the
// whole pool, per session, in how often each widget is used, how deep into
// lists users tap, and how long they think. A run plays only a prefix, and
// a few visits to screens with a heavy prefetch fan-out (search results,
// brand pages) moved data_x and heap_mb by a quarter between seeds;
// balancing keeps a run's mix fixed while its sessions change with the seed.
func balanced(pool []*trace.Trace) []*trace.Trace {
	dims := map[string]int{}
	feats := make([]map[string]float64, len(pool))
	for i, t := range pool {
		f := map[string]float64{}
		for _, e := range t.Events {
			f[string(e.Kind)+":"+e.Widget]++
			if e.Kind == trace.Tap {
				f[fmt.Sprintf("index:%d", min(e.Index, 8)/3)]++
			}
			f["think"] += e.Think.Seconds()
		}
		for k := range f {
			if _, ok := dims[k]; !ok {
				dims[k] = len(dims)
			}
		}
		feats[i] = f
	}
	counts := make([][]float64, len(pool))
	mean := make([]float64, len(dims))
	for i, f := range feats {
		counts[i] = make([]float64, len(dims))
		for k, v := range f {
			counts[i][dims[k]] = v
			mean[dims[k]] += v / float64(len(pool))
		}
	}
	sum := make([]float64, len(dims))
	used := make([]bool, len(pool))
	out := make([]*trace.Trace, 0, len(pool))
	for k := 1; k <= len(pool); k++ {
		best, bestCost := -1, 0.0
		for i := range pool {
			if used[i] {
				continue
			}
			cost := 0.0
			for d := range mean {
				want := mean[d] * float64(k)
				diff := (sum[d] + counts[i][d] - want) / (want + 1)
				cost += diff * diff
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		used[best] = true
		for d := range sum {
			sum[d] += counts[best][d]
		}
		out = append(out, pool[best])
	}
	return out
}

// observation is one client response, kept for the correctness oracle.
type observation struct {
	app    *apps.App
	req    *httpmsg.Request
	status int
	size   int
	sum    uint32
}

// handsetClient is one handset's HTTP stack: the device's own networked
// client (forward proxy, shaped 4G dial, keep-alive pool) with per-request
// timing and checksums added.
type handsetClient struct {
	env    *appEnv
	app    int // index of env in the workload's apps
	user   string
	client *http.Client
	tr     *http.Transport
	log    *clientLog
}

func newHandsetClient(env *appEnv, app int, user string, log *clientLog) *handsetClient {
	link := netem.Mobile4G()
	link.RTT = time.Duration(float64(link.RTT) * studyScale)
	link.Bandwidth = int64(float64(link.Bandwidth) / studyScale)
	dialer := &netem.Dialer{Link: link, Timeout: 10 * time.Second}
	tr := &http.Transport{
		Proxy:               http.ProxyURL(&url.URL{Scheme: "http", Host: env.proxyAddr}),
		DialContext:         dialer.DialContext,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	return &handsetClient{env: env, app: app, user: user, tr: tr, log: log,
		client: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *handsetClient) RoundTrip(r *httpmsg.Request) (*httpmsg.Response, error) {
	c.log.attempted++
	hreq, err := r.ToHTTP()
	if err != nil {
		c.log.fail(err)
		return nil, err
	}
	hreq.Host = r.Host
	hreq.Header.Set("X-Appx-User", c.user)
	start := time.Now()
	hresp, err := c.client.Do(hreq)
	if err != nil {
		c.log.fail(err)
		return nil, err
	}
	resp, err := httpmsg.FromHTTPResponse(hresp)
	if err != nil {
		hresp.Body.Close()
		c.log.fail(err)
		return nil, err
	}
	lat := time.Since(start)
	if resp.Status >= 500 {
		c.log.fail(fmt.Errorf("%s %s: status %d", r.Method, r.URL(), resp.Status))
	}
	c.log.done(lat, len(resp.Body), c.app)
	c.log.obs = append(c.log.obs, observation{app: c.env.app, req: r.Clone(), status: resp.Status, size: len(resp.Body), sum: checksum(resp.Body)})
	return resp, nil
}

// runStudy drives the handsets until the deadline. Each handset is a closed
// loop that plays rounds, one new session of every app per round, each
// session as a new user, sleeping each event's (scaled) think time before
// acting. The deadline is checked only between rounds, so every app gets the
// same number of sessions: with the window cut mid-round, one session more
// or less of one app moved the pooled interaction median across the gap
// between two apps' latency clusters. The window overruns the deadline by at
// most one round (a few seconds).
func runStudy(envs []*appEnv, sessions [][]*trace.Trace, handsets int, deadline time.Time, tr *tracer) []*clientLog {
	logs := make([]*clientLog, handsets)
	var wg sync.WaitGroup
	for h := 0; h < handsets; h++ {
		logs[h] = &clientLog{}
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for k := h; k < studyPool && time.Now().Before(deadline); k += handsets {
				for j := range envs {
					i := (j + h) % len(envs)
					playSession(envs[i], i, sessions[i][k], fmt.Sprintf("h%d-a%d-s%d", h, i, k), logs[h], tr)
				}
			}
		}(h)
	}
	wg.Wait()
	return logs
}

// playSession replays one session as a new user on a new handset.
func playSession(env *appEnv, app int, s *trace.Trace, user string, log *clientLog, tr *tracer) {
	hc := newHandsetClient(env, app, user, log)
	defer hc.tr.CloseIdleConnections()
	a := env.app
	d, err := device.New(device.Config{
		APK:         a.APK,
		RenderDelay: a.RenderDelay,
		Scale:       studyScale,
		Transport:   hc,
		User:        user,
		Props: interp.DeviceProps{
			UserAgent:  "AppxEmu/1.0 (user " + user + ")",
			Locale:     "en-US",
			AppVersion: a.APK.Manifest.Version,
		},
	})
	if err != nil {
		log.fail(err)
		return
	}
	for _, e := range s.Events {
		think := time.Duration(float64(e.Think) * studyScale / thinkSpeed)
		time.Sleep(think)
		var m device.Measure
		name := spanTap
		start := time.Now()
		switch e.Kind {
		case trace.Launch:
			name = spanLaunch
			m, err = d.Launch()
		case trace.Tap:
			m, err = d.Tap(e.Widget, e.Index)
		default:
			d.Back()
			continue
		}
		tr.record(name, 0, start, time.Now())
		if err != nil {
			log.fail(err)
			continue
		}
		log.interaction(unscale(m.Total), e.Main, app)
		log.txns += m.Transactions
		if e.Main {
			log.network = append(log.network, unscale(m.Network))
			log.processing = append(log.processing, unscale(m.Processing))
		}
	}
}

func unscale(d time.Duration) time.Duration { return time.Duration(float64(d) / studyScale) }

// checkStudy is the correctness oracle for study workloads: every response a
// handset received must match, in status, length and checksum, what the
// app's deterministic origin answers for the same request (paper R3: a
// prefetched response is byte-identical). Each distinct request is asked of
// a fresh in-process origin once.
func checkStudy(logs []*clientLog) (mismatches int64, err error) {
	type answer struct {
		status, size int
		sum          uint32
	}
	origins := map[*apps.App]http.Handler{}
	answers := map[string]answer{}
	for _, l := range logs {
		for _, o := range l.obs {
			h := origins[o.app]
			if h == nil {
				h = o.app.Handler(0)
				origins[o.app] = h
			}
			key := o.app.Name + " " + o.req.CanonicalKey()
			want, ok := answers[key]
			if !ok {
				resp, err := httpmsg.ServeViaHandler(h, o.req)
				if err != nil {
					return 0, fmt.Errorf("oracle: %w", err)
				}
				want = answer{resp.Status, len(resp.Body), checksum(resp.Body)}
				answers[key] = want
			}
			if want != (answer{o.status, o.size, o.sum}) {
				mismatches++
				if l.firstErr == "" {
					l.firstErr = fmt.Sprintf("oracle mismatch on %s %s: got status %d len %d, origin says %d len %d",
						o.req.Method, o.req.URL(), o.status, o.size, want.status, want.size)
				}
			}
		}
	}
	return mismatches, nil
}

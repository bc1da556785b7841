package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sliceLen is the interval a window is cut into. Rates (requests and CPU
// per request) are medians over slices in every workload, and so are the
// replay workloads' latency percentiles, so a burst of noise from outside
// the benchmark, or the proxy's first seconds of learning, moves one slice
// rather than the run. Study workloads complete too few interactions per
// second to split, and take their latency percentiles over the whole window.
const sliceLen = time.Second

// sample is one timed completion; app indexes the workload's apps.
type sample struct {
	end time.Time
	d   time.Duration
	app int
}

// clientLog is one client's (handset's or connection's) record of a window.
type clientLog struct {
	attempted, completed, failed, mismatches int64
	bytes                                    int64
	reqs, mains, alls                        []sample
	network, processing                      []time.Duration
	txns, interactions                       int
	obs                                      []observation
	firstErr                                 string
}

func (l *clientLog) fail(err error) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = err.Error()
	}
}

func (l *clientLog) done(lat time.Duration, n, app int) {
	l.completed++
	l.bytes += int64(n)
	l.reqs = append(l.reqs, sample{time.Now(), lat, app})
}

func (l *clientLog) interaction(d time.Duration, main bool, app int) {
	l.interactions++
	s := sample{time.Now(), d, app}
	l.alls = append(l.alls, s)
	if main {
		l.mains = append(l.mains, s)
	}
}

func merge(logs []*clientLog) clientLog {
	var m clientLog
	for _, l := range logs {
		m.attempted += l.attempted
		m.completed += l.completed
		m.failed += l.failed
		m.mismatches += l.mismatches
		m.bytes += l.bytes
		m.reqs = append(m.reqs, l.reqs...)
		m.mains = append(m.mains, l.mains...)
		m.alls = append(m.alls, l.alls...)
		m.network = append(m.network, l.network...)
		m.processing = append(m.processing, l.processing...)
		m.txns += l.txns
		m.interactions += l.interactions
		if m.firstErr == "" {
			m.firstErr = l.firstErr
		}
	}
	return m
}

// mark is a slice boundary: wall time and process CPU time.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// slice is one interval of a window with what completed in it.
type slice struct {
	dur               time.Duration
	cpu               time.Duration
	reqs, mains, alls []time.Duration
}

// window is what one timed phase measured.
type window struct {
	logs          []*clientLog
	client        clientLog
	start         time.Time
	slices        []slice
	before, after readout
	heapMB        float64
	quiesced      bool
}

func measure(p *phase, conns int, d time.Duration, tr *tracer) (*window, error) {
	w := &window{before: readAll(p.envs)}
	now := func() mark { return mark{time.Now(), cpuTime()} }
	marks := []mark{now()}
	w.start = marks[0].at
	deadline := w.start.Add(d)

	var mu sync.Mutex
	stop := make(chan struct{})
	var ticks sync.WaitGroup
	ticks.Add(1)
	go func() {
		defer ticks.Done()
		tk := time.NewTicker(sliceLen)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				m := now()
				if m.at.Before(deadline.Add(sliceLen / 2)) {
					mu.Lock()
					marks = append(marks, m)
					mu.Unlock()
				}
			}
		}
	}()
	if p.spec.study {
		w.logs = runStudy(p.envs, p.sessions, conns, deadline, tr)
	} else {
		var settle func(int64)
		if p.spec.fresh {
			settle = p.envs[0].settler()
		}
		w.logs = runReplay(p.envs[0].proxyAddr, conns, deadline, p.jobs(conns, false), settle)
	}
	close(stop)
	ticks.Wait()
	if len(marks) == 1 { // a window shorter than one slice is one slice
		marks = append(marks, now())
	}

	w.quiesced = quiesce(p.envs, 30*time.Second)
	w.after = readAll(p.envs)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	w.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	if p.spec.study {
		mm, err := checkStudy(w.logs)
		if err != nil {
			return nil, err
		}
		w.logs[0].mismatches += mm
		w.logs[0].failed += mm
	}
	w.client = merge(w.logs)
	w.slices = cut(marks, &w.client)
	if len(w.slices) == 0 || w.client.completed == 0 {
		return nil, fmt.Errorf("no request completed in %v", d)
	}
	return w, nil
}

// cut buckets the samples into the slices the marks bound; samples after
// the last mark are left out.
func cut(marks []mark, c *clientLog) []slice {
	if len(marks) < 2 {
		return nil
	}
	out := make([]slice, len(marks)-1)
	for i := range out {
		out[i].dur = marks[i+1].at.Sub(marks[i].at)
		out[i].cpu = marks[i+1].cpu - marks[i].cpu
	}
	index := func(t time.Time) int {
		return sort.Search(len(marks), func(i int) bool { return marks[i].at.After(t) }) - 1
	}
	bucket := func(ss []sample, field func(*slice) *[]time.Duration) {
		for _, s := range ss {
			if i := index(s.end); i >= 0 && i < len(out) {
				f := field(&out[i])
				*f = append(*f, s.d)
			}
		}
	}
	bucket(c.reqs, func(s *slice) *[]time.Duration { return &s.reqs })
	bucket(c.mains, func(s *slice) *[]time.Duration { return &s.mains })
	bucket(c.alls, func(s *slice) *[]time.Duration { return &s.alls })
	return out
}

// perSlice is the median over slices of f, skipping slices where f has no
// samples to work on.
func (w *window) perSlice(f func(s *slice) (float64, bool)) float64 {
	var vs []float64
	for i := range w.slices {
		if v, ok := f(&w.slices[i]); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

func (w *window) cpuPerReq() float64 {
	return w.perSlice(func(s *slice) (float64, bool) {
		return float64(s.cpu.Microseconds()) / float64(len(s.reqs)), len(s.reqs) > 0
	})
}

// quantile is perSlice for one quantile of one sample list, in ms.
func (w *window) quantile(list func(*slice) []time.Duration, q float64) float64 {
	return w.perSlice(func(s *slice) (float64, bool) {
		l := list(s)
		return ms(pct(l, q)), len(l) > 0
	})
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *result) endToEnd(spec workloadSpec, w *window, setups []float64) {
	c := &w.client
	// quantile is a latency percentile in ms: the median over slices in
	// replay workloads. Study workloads take it over the whole window,
	// unscaled to paper ms. There a median is taken for each app and
	// averaged over the apps, as the paper reports every app on its own:
	// pooled, chain's interaction median sat on the gap between one app's
	// cluster of slow taps and two apps' clusters of fast ones, and a
	// two-point shift in the share of fast taps moved it by a tenth. Tail
	// percentiles pool the apps, so that ten or more samples lie beyond them.
	quantile := func(list func(*slice) []time.Duration, all []sample, q float64) float64 {
		if !spec.study {
			return w.quantile(list, q)
		}
		if q != 0.5 {
			ds := make([]time.Duration, len(all))
			for i, s := range all {
				ds[i] = s.d
			}
			return ms(pct(ds, q))
		}
		perApp := make([][]time.Duration, len(spec.apps))
		for _, s := range all {
			perApp[s.app] = append(perApp[s.app], s.d)
		}
		var sum float64
		for _, ds := range perApp {
			sum += ms(pct(ds, q))
		}
		return sum / float64(len(perApp))
	}
	reqScale := 1.0
	if spec.study {
		reqScale = 1 / studyScale
	}
	reqs := func(s *slice) []time.Duration { return s.reqs }
	mains := func(s *slice) []time.Duration { return s.mains }
	alls := func(s *slice) []time.Duration { return s.alls }
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("main_p50_ms", quantile(mains, c.mains, 0.50), "ms", len(c.mains))
	r.set("main_p90_ms", quantile(mains, c.mains, 0.90), "ms", len(c.mains))
	r.set("interaction_p50_ms", quantile(alls, c.alls, 0.50), "ms", len(c.alls))
	r.set("data_x", float64(w.after.originBytes-w.before.originBytes)/float64(c.bytes), "ratio", 0)
	// A study slice completes a few dozen requests: too few for a per-slice
	// rate that is not a small integer, and for a per-slice CPU per request
	// whose median over slices is steady (run to run it spread three times
	// as wide as the pooled ratio). Study workloads pool the slices.
	rps := w.perSlice(func(s *slice) (float64, bool) {
		return float64(len(s.reqs)) / s.dur.Seconds(), true
	})
	cpu := w.cpuPerReq()
	if spec.study {
		var n int
		var d, busy time.Duration
		for _, s := range w.slices {
			n += len(s.reqs)
			d += s.dur
			busy += s.cpu
		}
		rps = float64(n) / d.Seconds()
		cpu = float64(busy.Microseconds()) / float64(n)
	}
	r.set("rps", rps, "1/s", len(c.reqs))
	r.set("req_p50_ms", quantile(reqs, c.reqs, 0.50)*reqScale, "ms", len(c.reqs))
	r.set("req_p99_ms", quantile(reqs, c.reqs, 0.99)*reqScale, "ms", len(c.reqs))
	r.set("cpu_us_per_req", cpu, "us", len(c.reqs))
	r.set("heap_mb", w.heapMB, "MiB", w.after.users)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/proxy"
)

// Span names recorded by the traced run. Every span is recorded from the
// benchmark's own wrappers around calls into the program; the program itself
// is not instrumented further.
const (
	spanServe    = "proxy.serve"     // tracedHandler around Proxy.ServeHTTP
	spanOriginFG = "origin.fg"       // Upstream.RoundTrip with a client span in ctx
	spanOriginPF = "origin.prefetch" // Upstream.RoundTrip from a prefetch worker
	spanAnalyze  = "static.analyze"
	spanLaunch   = "device.launch"
	spanTap      = "device.tap"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) recordID(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) record(name string, parent uint64, start, end time.Time) {
	t.recordID(t.newID(), parent, name, start, end)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// tracedHandler records one proxy.serve span per client request and puts
// its id in the request context, where the proxy's foreground origin calls
// carry it to tracedUpstream.
type tracedHandler struct {
	t    *tracer
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.t.newID()
	start := time.Now()
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
	h.t.recordID(id, 0, spanServe, start, time.Now())
}

// tracedUpstream records one span per origin attempt, classed foreground or
// prefetch by whether the context descends from a client request.
type tracedUpstream struct {
	t    *tracer
	next proxy.Upstream
}

func (u tracedUpstream) RoundTrip(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
	parent, _ := ctx.Value(spanKey{}).(uint64)
	name := spanOriginPF
	if parent != 0 {
		name = spanOriginFG
	}
	start := time.Now()
	resp, err := u.next.RoundTrip(ctx, r)
	u.t.record(name, parent, start, time.Now())
	return resp, err
}

// spanSummary derives the span-based per-layer figures: static analysis
// from set-up, the proxy and origin figures from spans that began at or
// after since.
type spanSummary struct {
	serve        []time.Duration
	serveSelfSum time.Duration
	fg, pf       int
	fetch        []time.Duration
	analyze      time.Duration
}

func (t *tracer) summarize(since time.Time) spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out spanSummary
	from := since.Sub(t.t0).Nanoseconds()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Name == spanAnalyze {
			out.analyze += s.dur()
			continue
		}
		if s.Start < from {
			continue
		}
		switch s.Name {
		case spanOriginFG:
			out.fg++
			out.fetch = append(out.fetch, s.dur())
			children[s.Parent] = append(children[s.Parent], s)
		case spanOriginPF:
			out.pf++
			out.fetch = append(out.fetch, s.dur())
		}
	}
	for _, s := range t.spans {
		if s.Name != spanServe || s.Start < from {
			continue
		}
		out.serve = append(out.serve, s.dur())
		out.serveSelfSum += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the part of parent's interval that the children's union spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

func traceFile(workload string) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s.jsonl", workload))
}

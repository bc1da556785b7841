package proxy

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"appx/internal/cache"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/sig"
)

// hotPath is one gated request path and the target that takes it.
type hotPath struct{ name, target string }

// hotPathProxy builds a proxy for the per-request hot path and returns the
// two gated paths: an unmatched request forwarded verbatim (a buffered
// 128-byte origin answer) and a fresh shared-tier prefetch hit.
func hotPathProxy(tb testing.TB) (*Proxy, []hotPath) {
	tb.Helper()
	body := make([]byte, 128)
	up := UpstreamFunc(func(ctx context.Context, r *httpmsg.Request) (*httpmsg.Response, error) {
		return &httpmsg.Response{Status: 200, Body: body}, nil
	})
	g := sig.NewGraph("t")
	p := New(Options{Graph: g, Config: config.Default(g), Upstream: up})
	tb.Cleanup(p.Close)
	const hit = "http://app.example/item?id=1"
	req, err := httpmsg.FromHTTPLimited(httptest.NewRequest("GET", hit, nil), 0)
	if err != nil {
		tb.Fatal(err)
	}
	p.Cache().Put(cache.SharedScope, req.CanonicalKey(), &cache.Entry{
		Resp:    &httpmsg.Response{Status: 200, Body: body},
		SigID:   "t:item#0",
		Expires: time.Now().Add(time.Hour),
	})
	return p, []hotPath{{"passthrough", "http://app.example/other"}, {"hit", hit}}
}

// serveOne runs one proxied GET through ServeHTTP and returns the status.
func serveOne(p *Proxy, target string) int {
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec.Code
}

// BenchmarkServeHTTP measures one request through the whole proxy on the
// passthrough and hit paths, httptest request/recorder included.
func BenchmarkServeHTTP(b *testing.B) {
	p, paths := hotPathProxy(b)
	for _, hp := range paths {
		b.Run(hp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if code := serveOne(p, hp.target); code != 200 {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}

// TestServeHTTPAllocBudget pins the per-request allocation count and bytes
// of both hot paths (httptest request/recorder included) at the measured
// values plus small headroom. Anything per request that scales with a
// latency window — a 4 KiB sample copy, a sort — breaks the bytes budget.
func TestServeHTTPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	// Measured with go1.24 on linux/amd64: passthrough 31 allocs, 7282 B;
	// hit 27 allocs, 7242 B. The per-request 4 KiB sort window this gate
	// replaced cost 3 allocs and ~4.1 KiB more on both paths.
	budgets := map[string]struct{ allocs, bytes int64 }{
		"passthrough": {allocs: 33, bytes: 8 << 10},
		"hit":         {allocs: 29, bytes: 8 << 10},
	}
	p, paths := hotPathProxy(t)
	for _, hp := range paths {
		for i := 0; i < 10; i++ { // warm pools and per-user state
			if code := serveOne(p, hp.target); code != 200 {
				t.Fatalf("%s: status %d", hp.name, code)
			}
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				serveOne(p, hp.target)
			}
		})
		want := budgets[hp.name]
		t.Logf("%s: %d allocs/op, %d B/op, %d ns/op", hp.name, res.AllocsPerOp(), res.AllocedBytesPerOp(), res.NsPerOp())
		if got := res.AllocsPerOp(); got > want.allocs {
			t.Errorf("%s: %d allocs/op, budget %d", hp.name, got, want.allocs)
		}
		if got := res.AllocedBytesPerOp(); got > want.bytes {
			t.Errorf("%s: %d B/op, budget %d", hp.name, got, want.bytes)
		}
	}
}

package verify

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"appx/internal/air"
	"appx/internal/apk"
	"appx/internal/apps"
	"appx/internal/sig"
	"appx/internal/static"
)

func noSleep(time.Duration) {}

func analyze(t testing.TB, a *apps.App) *sig.Graph {
	t.Helper()
	g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return g
}

func TestVerifyWishAllSignaturesPass(t *testing.T) {
	a := apps.Wish()
	g := analyze(t, a)
	rep, err := Run(Options{
		APK: a.APK, Graph: g, Origin: a.Handler(0),
		FuzzSeed: 5, FuzzEvents: 200,
		ProbeMin: time.Millisecond, ProbeMax: 4 * time.Millisecond, Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Verified) == 0 {
		t.Fatalf("nothing verified; disabled: %+v", rep.Disabled)
	}
	// Every verified signature's policy must remain enabled, every disabled
	// one's disabled.
	for _, id := range rep.Verified {
		pol := rep.Config.Policy(g.Sig(id).Hash())
		if pol == nil || !pol.Prefetch {
			t.Fatalf("verified %s has disabled policy", id)
		}
		if _, ok := rep.Expirations[id]; !ok {
			t.Fatalf("verified %s missing expiration estimate", id)
		}
	}
	for _, d := range rep.Disabled {
		pol := rep.Config.Policy(d.Hash)
		if pol == nil || pol.Prefetch {
			t.Fatalf("disabled %s still enabled", d.SigID)
		}
	}
	if rep.FuzzEvents < 200 {
		t.Fatalf("fuzz events = %d", rep.FuzzEvents)
	}
}

// buildRejectingApp issues a request whose reconstruction the origin refuses:
// the token is single-use, so the proxy's replayed copy gets a 403.
func buildRejectingApp(t testing.TB) (*apk.APK, http.Handler) {
	t.Helper()
	pb := air.NewProgramBuilder()
	c := pb.Class("Main", air.KindActivity)
	m := c.Method("launch", 0)
	req := m.CallAPI(air.APIHTTPNewRequest, m.ConstStr("GET"))
	m.CallAPI(air.APIHTTPSetURL, req, m.ConstStr("http://one.example/token"))
	resp := m.CallAPI(air.APIHTTPExecute, req)
	body := m.CallAPI(air.APIHTTPRespBody, resp)
	tok := m.CallAPI(air.APIJSONGet, body, m.ConstStr("token"))
	use := m.CallAPI(air.APIHTTPNewRequest, m.ConstStr("GET"))
	m.CallAPI(air.APIHTTPSetURL, use, m.ConstStr("http://one.example/use"))
	m.CallAPI(air.APIHTTPAddQuery, use, m.ConstStr("t"), tok)
	m.CallAPI(air.APIHTTPExecute, use)
	m.CallAPI(air.APIUIRender, m.ConstStr("home"))
	m.Done()

	a := &apk.APK{
		Manifest: apk.Manifest{
			Package: "com.oneshot", Label: "OneShot", Version: "1",
			LaunchHandler: "Main.launch", LaunchScreen: "home",
		},
		Screens: []apk.Screen{{Name: "home", Widgets: []apk.Widget{
			{ID: "again", Kind: apk.Button, Handler: "Main.launch"},
		}}},
		Program: pb.MustBuild(),
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}

	// Live requests and prefetch workers reach the origin concurrently.
	var mu sync.Mutex
	used := map[string]bool{}
	n := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/token", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		tok := fmt.Sprintf("tok-%d", n)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"token":%q}`, tok)
	})
	mux.HandleFunc("/use", func(w http.ResponseWriter, r *http.Request) {
		tok := r.URL.Query().Get("t")
		mu.Lock()
		reused := used[tok]
		used[tok] = true
		mu.Unlock()
		if reused {
			http.Error(w, "token reuse", http.StatusForbidden)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	})
	return a, mux
}

func TestVerifyDisablesRejectedSignature(t *testing.T) {
	a, origin := buildRejectingApp(t)
	g, err := static.Analyze(a.Program, "oneshot", a.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Prefetchable()) == 0 {
		t.Fatal("token dependency not found")
	}
	rep, err := Run(Options{
		APK: a, Graph: g, Origin: origin,
		FuzzSeed: 1, FuzzEvents: 30,
		ProbeMin: time.Millisecond, ProbeMax: 2 * time.Millisecond, Sleep: noSleep,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Disabled) == 0 {
		t.Fatalf("single-use token signature not disabled; verified=%v", rep.Verified)
	}
	found := false
	for _, d := range rep.Disabled {
		if d.Reason == ReasonRejected {
			found = true
			if pol := rep.Config.Policy(d.Hash); pol == nil || pol.Prefetch {
				t.Fatal("rejected signature still enabled in config")
			}
		}
	}
	if !found {
		t.Fatalf("no rejection reason recorded: %+v", rep.Disabled)
	}
}

func TestEstimateExpirationStaticContent(t *testing.T) {
	fetch := func() ([]byte, error) { return []byte("same"), nil }
	got := EstimateExpiration(fetch, 10*time.Millisecond, 160*time.Millisecond, noSleep)
	if got != 160*time.Millisecond {
		t.Fatalf("static content estimate = %v, want max", got)
	}
}

func TestEstimateExpirationChangingContent(t *testing.T) {
	// Content changes after ~35ms of (virtual) elapsed time.
	var virtual time.Duration
	sleep := func(d time.Duration) { virtual += d }
	fetch := func() ([]byte, error) {
		if virtual >= 35*time.Millisecond {
			return []byte("new"), nil
		}
		return []byte("old"), nil
	}
	got := EstimateExpiration(fetch, 10*time.Millisecond, 640*time.Millisecond, sleep)
	// Periods: 10 (vt=10, old), 20 (vt=30, old), 40 (vt=70, new) → 40ms.
	if got != 40*time.Millisecond {
		t.Fatalf("changing content estimate = %v, want 40ms", got)
	}
}

func TestEstimateExpirationFetchError(t *testing.T) {
	calls := 0
	fetch := func() ([]byte, error) {
		calls++
		if calls > 1 {
			return nil, fmt.Errorf("down")
		}
		return []byte("x"), nil
	}
	got := EstimateExpiration(fetch, 10*time.Millisecond, 80*time.Millisecond, noSleep)
	if got != 10*time.Millisecond {
		t.Fatalf("error estimate = %v, want min", got)
	}
}

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/proxy"
	"appx/internal/static"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload briefly in both modes and checks that the
// run is correct and prints exactly the declared metrics, each with its
// declared unit; end-to-end metrics must also be positive. chain runs too,
// though BENCHMARK.json does not declare it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	for _, wl := range f.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Fatalf("BENCHMARK.json declares workload %q, perfbench has none", wl.Name)
		}
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, err := run(name, 3, 2*time.Second, traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", name, traced, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, declared %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// appxProxyUnused lists the appx-proxy flags whose non-zero defaults do not
// reach proxy.Options, with the reason the benchmark may ignore them.
var appxProxyUnused = map[string]string{
	"listen":            "listen address",
	"scale":             "clock of the in-process origins; each workload sets its own",
	"drain-timeout":     "shutdown only",
	"prune-interval":    "idle-user pruning tick, longer than any run",
	"prune-max-idle":    "idle-user pruning age, longer than any run",
	"snapshot-interval": "takes effect only with -state-dir",
	"fault-seed":        "takes effect only with -fault",
}

// TestWiringMatchesAppxProxyDefaults checks that the benchmark's proxy is
// the one `appx-proxy -app X` builds with no flags: the command's flag
// defaults are read from its own usage text, and proxyOptions must match
// them with every other option at its zero value and the derived
// configuration untouched.
func TestWiringMatchesAppxProxyDefaults(t *testing.T) {
	out, _ := exec.Command("go", "run", "appx/cmd/appx-proxy", "-h").CombinedOutput()
	defaults := map[string]string{}
	re := regexp.MustCompile(`(?m)^  -(\S+)(?: \S+)?\n\s+\t.*?(?:\(default (.*)\))?$`)
	for _, m := range re.FindAllStringSubmatch(string(out), -1) {
		defaults[m[1]] = m[2]
	}
	if len(defaults) < 10 {
		t.Fatalf("could not read appx-proxy flags:\n%s", out)
	}
	if got := defaults["workers"]; got != strconv.Itoa(appxProxyWorkers) {
		t.Errorf("appx-proxy -workers defaults to %q, benchmark uses %d", got, appxProxyWorkers)
	}
	if got := defaults["prefetch-policy"]; got != strconv.Quote(appxProxyPolicy) {
		t.Errorf("appx-proxy -prefetch-policy defaults to %s, benchmark uses %q", got, appxProxyPolicy)
	}
	for name, def := range defaults {
		if def == "" || name == "workers" || name == "prefetch-policy" {
			continue
		}
		if _, ok := appxProxyUnused[name]; !ok {
			t.Errorf("appx-proxy -%s has non-zero default %s that the benchmark does not apply", name, def)
		}
	}

	a := apps.DoorDash()
	g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	up := proxy.NewNetUpstream(nil, nil)
	opts := proxyOptions(g, up)
	if !reflect.DeepEqual(opts.Config, config.Default(g)) {
		t.Error("benchmark config differs from config.Default")
	}
	if opts.Config.Cache != nil || opts.Config.EffectiveCache().DisableSharedTier {
		t.Error("benchmark config overrides the cache defaults")
	}
	v := reflect.ValueOf(opts)
	set := map[string]bool{"Graph": true, "Config": true, "Upstream": true, "Workers": true, "PrefetchPolicy": true}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if !set[name] && !v.Field(i).IsZero() {
			t.Errorf("proxy.Options.%s is set; appx-proxy leaves it at its zero value", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// TestHarrellDavis pins pct to Harrell–Davis values computed independently,
// by Simpson integration of the Beta density, and checks a large sample.
func TestHarrellDavis(t *testing.T) {
	ms := func(v ...float64) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x * float64(time.Millisecond))
		}
		return out
	}
	for _, c := range []struct {
		in   []time.Duration
		q    float64
		want float64
	}{
		{ms(1, 2, 3, 4, 5), 0.5, 3},
		{ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.5, 5.5},
		{ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.9, 9.4351},
		{ms(1, 1, 1, 2, 9), 0.5, 1.7229},
	} {
		got := float64(pct(c.in, c.q)) / float64(time.Millisecond)
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("pct(%v, %v) = %.4f, want %.4f", c.in, c.q, got, c.want)
		}
	}
	big := make([]time.Duration, 100000)
	for i := range big {
		big[i] = time.Duration(i)
	}
	if got := pct(big, 0.99); got < 98900 || got > 99100 {
		t.Errorf("pct(0..99999, 0.99) = %v", got)
	}
}

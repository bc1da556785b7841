package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload k times, each in its own process on its own
// seed, and prints every metric's median, quartiles and quartile spread as
// a share of the median — the figures that show the benchmark is steady and
// that its bounds hold.
func repeatRuns(name string, seed int64, seconds float64, traced, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w\n%s", s, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: incorrect run\n%s", s, out.String())
		}
		fmt.Printf("seed %d: %s\n", s, lines[len(lines)-1])
		for n, m := range res.Metrics {
			if _, ok := values[n]; !ok {
				names = append(names, n)
			}
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	fmt.Printf("%-32s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, n := range names {
		v := values[n]
		med := median(v)
		q1, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		summary[n] = map[string]float64{"q1": q1, "median": med, "q3": q3, "spread": spread}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.3f %s\n", n, q1, med, q3, spread, units[n])
	}
	b, _ := json.Marshal(summary)
	fmt.Println(string(b))
	return nil
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(v, n=4) does (its default "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

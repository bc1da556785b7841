package main

import (
	"math"
	"sort"
	"time"
)

// pct is the q-quantile by the Harrell–Davis estimator: a weighted mean of
// all order statistics with Beta((n+1)q, (n+1)(1-q)) weights. Study
// workloads time a few hundred interactions whose latencies fall in tight
// clusters (hit, miss, launch) with gaps between them, and the plain sample
// median jumps across a gap when a handful of samples change sides; the
// weighted mean moves by the share of samples that did.
func pct(ds []time.Duration, q float64) time.Duration {
	n := len(ds)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	// The weights outside a few standard deviations of q·n are below
	// float64 resolution; skip them.
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	lo := max(0, int(math.Floor((q-12*sd)*float64(n)))-1)
	hi := min(n, int(math.Ceil((q+12*sd)*float64(n)))+1)
	var sum float64
	prev := betaInc(a, b, float64(lo)/float64(n))
	for i := lo; i < hi; i++ {
		next := betaInc(a, b, float64(i+1)/float64(n))
		sum += (next - prev) * float64(s[i])
		prev = next
	}
	return time.Duration(sum)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 over fewer than 1000 samples would be the maximum in disguise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place). It refuses when fewer than minBeyond samples lie beyond the
// chosen rank, so every reported tail has at least ten samples behind it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return samples[rank], nil
}

// median is the middle of a handful of repeated measurements (set-up
// times, reload durations); unlike percentile it accepts any count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latency summarises one operation class: median and p99 with the sample
// count behind them.
type latency struct {
	N        int
	P50, P99 float64
}

// summarize computes a latency from raw samples, failing when the p99
// would have fewer than minBeyond samples beyond it.
func summarize(samples []float64) (latency, error) {
	p50, err := percentile(samples, 0.50)
	if err != nil {
		return latency{}, err
	}
	p99, err := percentile(samples, 0.99)
	if err != nil {
		return latency{}, err
	}
	return latency{N: len(samples), P50: p50, P99: p99}, nil
}

// tailLatency is a median plus the highest percentile that still has
// minBeyond samples beyond it, for sample sets too small for a p99.
type tailLatency struct {
	N    int
	P50  float64
	Q    float64 // the tail percentile, e.g. 0.98; 0 when there is none
	Tail float64
}

// tail computes a tailLatency.
func tail(samples []float64) tailLatency {
	t := tailLatency{N: len(samples)}
	if len(samples) == 0 {
		return t
	}
	t.P50 = median(samples)
	for _, q := range []float64{0.99, 0.98, 0.95, 0.9, 0.75, 0.5} {
		if v, err := percentile(samples, q); err == nil {
			t.Q, t.Tail = q, v
			break
		}
	}
	return t
}

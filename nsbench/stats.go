package main

import (
	"math"
	"runtime/debug"
	"sort"
	"time"
)

// tailLadder is the percentiles a tail figure may report, highest
// first. A timing's tail is the highest of these that still has at
// least minBeyond samples ranked above it, so a short run reports p90
// rather than a p99 resting on one or two samples.
var tailLadder = []float64{99.9, 99, 90, 75}

// minBeyond is how many samples must rank above a reported percentile.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p (0..100] over n
// sorted samples: ceil(p/100·n)−1, clamped to [0, n−1]. Returns -1 for
// an empty sample.
func rankIndex(n int, p float64) int {
	if n <= 0 {
		return -1
	}
	// The epsilon keeps float rounding (99.9/100·10000 =
	// 9990.000000000002) from pushing an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return max(0, min(i, n-1))
}

// tailPct returns the highest ladder percentile whose nearest rank has
// at least minBeyond samples above it, or ok=false when even the
// lowest rung has fewer.
func tailPct(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if i := rankIndex(n, p); i >= 0 && n-1-i >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// summary is one timing distribution: its median and its tail
// percentile under the ≥minBeyond rule, with the sample count.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"` // 0 when no percentile qualifies
	Tail    float64 `json:"tail,omitempty"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// summarize sorts xs in place and returns its summary.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = xs[rankIndex(len(xs), 50)]
	s.Max = xs[len(xs)-1]
	if p, ok := tailPct(len(xs)); ok {
		s.TailPct = p
		s.Tail = xs[rankIndex(len(xs), p)]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// median returns the nearest-rank median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[rankIndex(len(c), 50)]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// durationsMS converts a duration sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs build reps times and returns each run's duration in
// seconds. Before each, untimed, garbage is collected and free memory
// returned to the OS, so every build starts from the same state and
// pays for fresh memory as a new process does; measured from whatever
// heap the previous build left, the times scatter several-fold.
func timeSetup(reps int, build func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		t := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// windowRates splits back-to-back operation times into consecutive
// windows of at least w and returns each window's operations per
// second. A run shorter than w is one window; a shorter tail is
// dropped.
func windowRates(durs []time.Duration, w time.Duration) []float64 {
	var out []float64
	var acc time.Duration
	n := 0
	for _, d := range durs {
		acc += d
		n++
		if acc >= w {
			out = append(out, float64(n)/acc.Seconds())
			acc, n = 0, 0
		}
	}
	if len(out) == 0 && acc > 0 {
		out = append(out, float64(n)/acc.Seconds())
	}
	return out
}

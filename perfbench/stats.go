package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile restricted to percentiles that leave at least
// ten samples beyond them, so a reported tail is never one or two
// outliers.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("p%g needs at least ten samples beyond it, have %d samples", 100*q, len(xs))
	}
	return quantile(xs, q), nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeIt runs f once and returns its wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

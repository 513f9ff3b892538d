// Package stats provides the small statistical toolkit used by the
// evaluation harness: geometric means (the paper's headline aggregate),
// summary statistics, and text/CSV rendering for regenerating the paper's
// tables and figures.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// GeoMean returns the geometric mean of xs, defined for any input:
// callers feed it IPC ratios that are positive by construction in clean
// runs, but injected faults (a stuck prefetcher arm, collapsed DRAM
// bandwidth) can drive a measurement to exactly 0. A zero element makes
// the result 0 — the mathematical limit of the geometric mean — rather
// than NaN; negative, NaN, and infinite elements are skipped so one
// corrupt measurement cannot poison a whole summary cell. Empty input,
// or input with no usable elements, returns 0.
func GeoMean(xs []float64) float64 {
	logSum, n := 0.0, 0
	hasZero := false
	for _, x := range xs {
		switch {
		case x == 0:
			hasZero = true
		case x < 0 || math.IsNaN(x) || math.IsInf(x, 0):
			// skip: undefined under a geometric mean
		default:
			logSum += math.Log(x)
			n++
		}
	}
	if hasZero {
		return 0
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the min / max / geometric-mean triple the paper reports in
// Tables 8 and 9 (as percentages of the best-static-arm IPC).
type Summary struct {
	Min   float64
	Max   float64
	GMean float64
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{Min: Min(xs), Max: Max(xs), GMean: GeoMean(xs)}
}

// AsPercent returns the summary with every field multiplied by 100, matching
// the paper's "% of best static arm" presentation.
func (s Summary) AsPercent() Summary {
	return Summary{Min: s.Min * 100, Max: s.Max * 100, GMean: s.GMean * 100}
}

// String renders the summary as "min=.. max=.. gmean=.." with one decimal.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.1f max=%.1f gmean=%.1f", s.Min, s.Max, s.GMean)
}

// SpeedupPercent converts a ratio r into the "+x%" convention the paper
// uses: 1.026 -> 2.6.
func SpeedupPercent(r float64) float64 { return (r - 1) * 100 }

package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs with at least minBeyond samples
// above it: the (minBeyond+1)-th largest sample. pct is that percentile
// ((n−minBeyond)/n·100). With too few samples it falls back to the
// maximum and ok is false, so the report can say the tail is undersampled.
type tail struct {
	Value   float64 `json:"value"`
	Pct     float64 `json:"percentile"`
	Samples int     `json:"samples"`
	OK      bool    `json:"at_least_10_beyond"`
}

const minBeyond = 10

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	if n <= minBeyond {
		return tail{Value: s[n-1], Pct: 100, Samples: n}
	}
	return tail{Value: s[n-1-minBeyond], Pct: 100 * float64(n-minBeyond) / float64(n), Samples: n, OK: true}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the value is one or two outliers.
const minBeyond = 10

// quantile is an exact nearest-rank percentile of raw samples.
type quantile struct {
	P      float64 `json:"p"`      // percentile, e.g. 99
	Value  float64 `json:"value"`  // in the samples' unit
	N      int     `json:"n"`      // sample count
	Beyond int     `json:"beyond"` // samples strictly above the rank
	OK     bool    `json:"ok"`     // false: refused, fewer than minBeyond samples beyond
}

// percentile returns the nearest-rank p-th percentile of xs: the value
// at rank ceil(p/100 * n) of the sorted samples. It refuses (OK false)
// when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) quantile {
	q := quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(len(s), p)
	if rank < 1 {
		rank = 1
	}
	q.Value = s[rank-1]
	q.Beyond = len(s) - rank
	q.OK = q.Beyond >= minBeyond
	return q
}

// nearestRank is ceil(p/100 * n), computed as p*n/100 so that integer
// percentiles of integer counts are exact.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p * float64(n) / 100))
}

func (q quantile) String() string {
	if !q.OK {
		return fmt.Sprintf("refused (n=%d, %d beyond p%g; need %d)", q.N, q.Beyond, q.P, minBeyond)
	}
	return fmt.Sprintf("%.4f (n=%d)", q.Value, q.N)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 50, 500},
		{1000, 99, 990},
		{20, 50, 10},
		{200, 90, 180},
	} {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.want || q.N != c.n || q.Beyond != c.n-int(c.want) {
			t.Errorf("p%g of 1..%d = %+v, want value %g", c.p, c.n, q, c.want)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it:
// p99 needs 1000 samples, p90 100, p50 20.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 99, false},
		{1000, 99, true},
		{99, 90, false},
		{100, 90, true},
		{19, 50, false},
		{20, 50, true},
		{0, 50, false},
	} {
		if got := percentile(seq(c.n), c.p).OK; got != c.ok {
			t.Errorf("p%g with n=%d: OK=%v, want %v", c.p, c.n, got, c.ok)
		}
	}
}

// Latency runs from the due time, not the send time, and a failed op
// counts as missing the limit however fast it failed.
func TestLatencyFromDueTime(t *testing.T) {
	limit := 50 * time.Millisecond
	o := &op{Due: 100 * time.Millisecond}
	ok := &outcome{Sent: 300 * time.Millisecond, Done: 310 * time.Millisecond}
	if got := latency(o, ok, limit); got != 210*time.Millisecond {
		t.Errorf("latency of an op sent 200ms late = %v, want 210ms", got)
	}
	failed := &outcome{Sent: 100 * time.Millisecond, Done: 101 * time.Millisecond, Fail: "connection refused"}
	if got := latency(o, failed, limit); got != limit {
		t.Errorf("latency of a fast failure = %v, want the limit %v", got, limit)
	}
}

package partition

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

func TestRangesCoverExactly(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for parts := 1; parts <= 9; parts++ {
			rs := Ranges(n, parts)
			next := 0
			for _, r := range rs {
				if r.Start != next {
					t.Fatalf("n=%d parts=%d: range starts at %d, want %d", n, parts, r.Start, next)
				}
				if r.Len() <= 0 {
					t.Fatalf("n=%d parts=%d: empty range %+v", n, parts, r)
				}
				next = r.End
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: ranges cover [0,%d), want [0,%d)", n, parts, next, n)
			}
			if len(rs) > parts || (n > 0 && len(rs) == 0) {
				t.Fatalf("n=%d parts=%d: got %d ranges", n, parts, len(rs))
			}
		}
	}
	if Ranges(5, 0) != nil {
		t.Fatal("parts=0 should return nil")
	}
}

func TestShardVisitsEveryItemOnce(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		const items = 100
		var hits [items]int32
		err := p.Shard(ctx, nil, items, func(shard int, s *graph.Scratch, r Range) error {
			if s == nil {
				return errors.New("nil scratch")
			}
			for i := r.Start; i < r.End; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestShardReturnsLowestShardError(t *testing.T) {
	p := NewPool(4)
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := p.Shard(context.Background(), nil, 40, func(shard int, _ *graph.Scratch, _ Range) error {
		switch shard {
		case 1:
			return errLow
		case 3:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("err=%v, want the lowest-indexed shard's error", err)
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers=%d", p.Workers())
	}
	ran := false
	err := p.Shard(context.Background(), nil, 7, func(shard int, _ *graph.Scratch, r Range) error {
		ran = true
		if shard != 0 || r.Start != 0 || r.End != 7 {
			t.Fatalf("nil pool shard=%d range=%+v", shard, r)
		}
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
}

func TestShardEmptyHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := NewPool(4).Shard(ctx, nil, 0, nil); err == nil {
		t.Fatal("cancelled empty shard returned nil")
	}
	if err := NewPool(4).Shard(context.Background(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSerialShardUsesCallerScratch pins the serial path: a nil pool, a
// one-worker pool, and a single-item run on a wide pool all run fn
// inline as one range with the caller's own scratch, so a serial build
// walks in its warm buffers; a nil scratch gets a fresh one. A
// multi-shard run leaves the caller's scratch alone.
func TestSerialShardUsesCallerScratch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		pool  *Pool
		items int
	}{
		{"nil pool", nil, 7},
		{"one worker", NewPool(1), 7},
		{"one item", NewPool(4), 1},
	} {
		caller := graph.NewScratch()
		calls := 0
		err := tc.pool.Shard(ctx, caller, tc.items, func(shard int, s *graph.Scratch, r Range) error {
			calls++
			if shard != 0 || r != (Range{Start: 0, End: tc.items}) {
				t.Errorf("%s: shard=%d range=%+v, want the one range [0,%d)", tc.name, shard, r, tc.items)
			}
			if s != caller {
				t.Errorf("%s: fn got a scratch other than the caller's", tc.name)
			}
			return nil
		})
		if err != nil || calls != 1 {
			t.Fatalf("%s: err=%v calls=%d, want one inline call", tc.name, err, calls)
		}
		var got *graph.Scratch
		if err := tc.pool.Shard(ctx, nil, tc.items, func(_ int, s *graph.Scratch, _ Range) error {
			got = s
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("%s: a nil caller scratch was not replaced by a fresh one", tc.name)
		}
	}

	p, caller := NewPool(3), graph.NewScratch()
	var used atomic.Bool
	if err := p.Shard(ctx, caller, 30, func(_ int, s *graph.Scratch, _ Range) error {
		if s == caller {
			used.Store(true)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if used.Load() {
		t.Fatal("a multi-shard run handed a shard the caller's scratch")
	}
}

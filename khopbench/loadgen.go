package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
)

// outcome is what happened to one scheduled op. Offsets are from the
// start of the load window.
type outcome struct {
	Lag  time.Duration // how late the generator dispatched the op
	Sent time.Duration
	Done time.Duration // completion, or when the failure was recorded
	// Fail is empty on success; otherwise the reason the op failed.
	Fail string
	// Mismatch marks a failed output check, which fails the whole run.
	Mismatch bool
}

// latency is the op's latency from its due time. A failed op counts
// as missing the limit: its latency is at least limit.
func latency(o *op, out *outcome, limit time.Duration) time.Duration {
	d := out.Done - o.Due
	if out.Fail != "" && d < limit {
		d = limit
	}
	return d
}

// loadgen drives one plan open loop: every op is dispatched at its due
// time whatever the state of earlier ops, queued until one of conns
// connections is free, and timed from its due time. Nothing is dropped:
// an op still queued or in flight at the hard deadline (the load window
// plus the drain window) is a failure.
type loadgen struct {
	cl    *client.Client
	plan  *plan
	conns int
	drain time.Duration

	out []outcome
	// outstanding counts ops dispatched but not finished; maxOut is its
	// high-water mark.
	outstanding atomic.Int64
	maxOut      atomic.Int64
	// backlog samples outstanding every backlogTick.
	backlog []backlogSample
}

type backlogSample struct {
	At          time.Duration
	Outstanding int64
}

const backlogTick = 100 * time.Millisecond

func (g *loadgen) run(ctx context.Context) {
	ops := g.plan.ops
	g.out = make([]outcome, len(ops))
	start := time.Now()
	ctx, cancel := context.WithDeadline(ctx, start.Add(g.plan.window+g.drain))
	defer cancel()
	since := func() time.Duration { return time.Since(start) }

	q := newQueue(ops, g.conns)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := q.take()
				if !ok {
					return
				}
				o, out := &ops[i], &g.out[i]
				if ctx.Err() != nil {
					out.Fail = "still queued at the deadline"
				} else {
					out.Sent = since()
					g.exec(ctx, o, out)
				}
				out.Done = since()
				q.done(i)
				g.outstanding.Add(-1)
			}
		}()
	}

	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(backlogTick)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				g.backlog = append(g.backlog, backlogSample{At: since(), Outstanding: g.outstanding.Load()})
			}
		}
	}()

	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for i := range ops {
		if wait := ops[i].Due - since(); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch // interrupted: the caller discards the run
			}
		}
		g.out[i].Lag = since() - ops[i].Due
		if n := g.outstanding.Add(1); n > g.maxOut.Load() {
			g.maxOut.Store(n) // only this goroutine raises it
		}
		q.push(i)
	}
	q.close()
	wg.Wait()
	close(stopSampler)
	<-samplerDone
}

// queue holds dispatched ops until a connection takes them. Batches
// go first, so churn never waits behind a read backlog, and one
// deployment's batches go one at a time, in order. A read of a
// deployment whose batch is in flight is sent like any other, so it
// waits on the server's lock and that wait shows in its latency; but at
// most conns-1 such reads are in flight at once. Without that cap, with
// at most nproc connections, reads parked on one deployment's lock
// could hold every connection and stall the other deployments' reads
// behind it, a head-of-line block of the generator's making.
type queue struct {
	ops  []op
	mu   sync.Mutex
	cond *sync.Cond
	// batches are the dispatched batches not yet taken, in due order.
	batches []int
	// reads are the dispatched reads in due order; a taken read's entry
	// is -1, and reads[:head] are all taken. Taking is O(1) unless the
	// reads at the front wait on busy deployments, so an overload
	// backlog does not slow the generator down.
	reads  []int
	head   int
	nReads int             // reads not yet taken
	busy   map[string]bool // deployments with a batch in flight
	// parked marks the reads sent while their deployment was busy;
	// nParked counts those in flight, at most maxParked.
	parked    []bool
	nParked   int
	maxParked int
	closed    bool // every op has been dispatched
}

func newQueue(ops []op, conns int) *queue {
	q := &queue{ops: ops, busy: make(map[string]bool), parked: make([]bool, len(ops)), maxParked: conns - 1}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(i int) {
	q.mu.Lock()
	if q.ops[i].Kind == opChurn {
		q.batches = append(q.batches, i)
	} else {
		q.reads = append(q.reads, i)
		q.nReads++
	}
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// take blocks until an op may be sent — the earliest batch on an idle
// deployment, else the earliest read that is on an idle deployment or
// within the parked-read cap — and reports false once every op has
// been taken.
func (q *queue) take() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if i, ok := q.takeLocked(); ok {
			return i, true
		}
		if q.closed && len(q.batches) == 0 && q.nReads == 0 {
			return 0, false
		}
		q.cond.Wait()
	}
}

// takeLocked removes and returns the op take would hand out now, if
// there is one.
func (q *queue) takeLocked() (int, bool) {
	for j, i := range q.batches {
		if dep := q.ops[i].Dep; !q.busy[dep] {
			q.batches = append(q.batches[:j], q.batches[j+1:]...)
			q.busy[dep] = true
			return i, true
		}
	}
	for j := q.head; j < len(q.reads); j++ {
		i := q.reads[j]
		if i < 0 {
			continue
		}
		busy := q.busy[q.ops[i].Dep]
		if busy && q.nParked >= q.maxParked {
			continue
		}
		q.reads[j] = -1
		q.nReads--
		for q.head < len(q.reads) && q.reads[q.head] < 0 {
			q.head++
		}
		if busy {
			q.parked[i] = true
			q.nParked++
		}
		return i, true
	}
	return 0, false
}

// done releases a finished batch's deployment or a parked read's slot.
func (q *queue) done(i int) {
	q.mu.Lock()
	switch {
	case q.ops[i].Kind == opChurn:
		q.busy[q.ops[i].Dep] = false
	case q.parked[i]:
		q.nParked--
	default:
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// exec sends one op and checks its answer.
func (g *loadgen) exec(ctx context.Context, o *op, out *outcome) {
	topo := g.plan.topo[o.Dep]
	var err error
	switch o.Kind {
	case opRoute:
		var resp api.RouteResponse
		if resp, err = g.cl.Route(ctx, o.Dep, o.Src, o.Dst); err == nil {
			err = checkRoute(topo, o.Src, o.Dst, resp)
			out.Mismatch = err != nil
		}
	case opBroadcast:
		var resp api.BroadcastResponse
		if resp, err = g.cl.Broadcast(ctx, o.Dep, o.Src); err == nil {
			err = checkBroadcast(o.Src, resp)
			out.Mismatch = err != nil
		}
	case opChurn:
		var resp api.EventsResponse
		if resp, err = g.cl.Events(ctx, o.Dep, o.Events); err == nil {
			err = checkEvents(o.Events, resp)
			out.Mismatch = err != nil
		}
	}
	if err != nil {
		out.Fail = err.Error()
		if errors.Is(err, context.DeadlineExceeded) {
			out.Fail = "in flight at the deadline"
		}
	}
}

// checkRoute verifies a route answer against the generated topology:
// it runs from src to dst, its hop count is its length minus one, and
// every step is an edge. Churn batches restore the topology they start
// from, so between batches the served graph is always this one.
func checkRoute(t *topology, src, dst int, r api.RouteResponse) error {
	switch {
	case r.Src != src || r.Dst != dst:
		return fmt.Errorf("route %d->%d: answer is for %d->%d", src, dst, r.Src, r.Dst)
	case len(r.Route) == 0 || r.Route[0] != src || r.Route[len(r.Route)-1] != dst:
		return fmt.Errorf("route %d->%d: path %v does not join the endpoints", src, dst, r.Route)
	case r.Hops != len(r.Route)-1:
		return fmt.Errorf("route %d->%d: hops %d for a path of %d nodes", src, dst, r.Hops, len(r.Route))
	}
	for i := 1; i < len(r.Route); i++ {
		u, v := r.Route[i-1], r.Route[i]
		if u < 0 || u >= t.n || v < 0 || v >= t.n || !t.graph.HasEdge(u, v) {
			return fmt.Errorf("route %d->%d: step %d-%d is not an edge", src, dst, u, v)
		}
	}
	return nil
}

func checkBroadcast(src int, r api.BroadcastResponse) error {
	if r.Src != src || !r.Covered {
		return fmt.Errorf("broadcast from %d: src %d, covered %v", src, r.Src, r.Covered)
	}
	return nil
}

func checkEvents(evs []api.EventRequest, r api.EventsResponse) error {
	if r.Applied != len(evs) || len(r.Reports) != len(evs) {
		return fmt.Errorf("churn batch of %d events: applied %d, %d reports", len(evs), r.Applied, len(r.Reports))
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	khop "repro"
	"repro/api"
	"repro/client"
)

// line is the 3-node path 0-1-2.
func line() *topology {
	t := &topology{n: 3, edges: [][2]int{{0, 1}, {1, 2}}}
	t.graph = t.newGraph()
	return t
}

// testPlan wraps ops (routes 0->2 on deployment d00 unless set) into a
// plan with one step spanning the window.
func testPlan(window time.Duration, dues ...time.Duration) *plan {
	p := &plan{
		spec:     spec{Limit: 50 * time.Millisecond},
		window:   window,
		stepEnds: [3]time.Duration{window, window, window},
		readDeps: []string{"d00"},
		topo:     map[string]*topology{"d00": line()},
	}
	for _, d := range dues {
		p.ops = append(p.ops, op{Kind: opRoute, Due: d, Dep: "d00", Src: 0, Dst: 2})
	}
	return p
}

// fakeKhopd answers every route query with path, after delay or, with
// block set, not until the client gives up.
func fakeKhopd(t *testing.T, path []int, delay time.Duration, block bool) *client.Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if block {
			<-r.Context().Done()
			return
		}
		time.Sleep(delay)
		json.NewEncoder(w).Encode(api.RouteResponse{Src: 0, Dst: 2, Route: path, Hops: len(path) - 1})
	}))
	t.Cleanup(srv.Close)
	return client.New(srv.URL)
}

func TestCheckRoute(t *testing.T) {
	topo := line()
	for _, c := range []struct {
		name string
		resp api.RouteResponse
		ok   bool
	}{
		{"valid", api.RouteResponse{Src: 0, Dst: 2, Route: []int{0, 1, 2}, Hops: 2}, true},
		{"wrong endpoints", api.RouteResponse{Src: 0, Dst: 1, Route: []int{0, 1}, Hops: 1}, false},
		{"path misses dst", api.RouteResponse{Src: 0, Dst: 2, Route: []int{0, 1}, Hops: 1}, false},
		{"hops disagree", api.RouteResponse{Src: 0, Dst: 2, Route: []int{0, 1, 2}, Hops: 3}, false},
		{"non-edge step", api.RouteResponse{Src: 0, Dst: 2, Route: []int{0, 2}, Hops: 1}, false},
		{"out of range", api.RouteResponse{Src: 0, Dst: 2, Route: []int{0, 7, 2}, Hops: 2}, false},
	} {
		if err := checkRoute(topo, 0, 2, c.resp); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// An answer that takes a step that is not an edge is a failed op, and
// it makes the whole run incorrect.
func TestInjectedBadRouteFailsTheRun(t *testing.T) {
	p := testPlan(50*time.Millisecond, 0, 10*time.Millisecond)
	g := &loadgen{cl: fakeKhopd(t, []int{0, 2}, 0, false), plan: p, conns: 1, drain: time.Second}
	g.run(context.Background())
	failed, correct, _, mismatches := tally(g.out)
	if failed != 2 || correct || len(mismatches) != 2 {
		t.Fatalf("bad routes: failed=%d correct=%v mismatches=%v; want 2 failures and an incorrect run", failed, correct, mismatches)
	}
	good := testPlan(50*time.Millisecond, 0)
	g = &loadgen{cl: fakeKhopd(t, []int{0, 1, 2}, 0, false), plan: good, conns: 1, drain: time.Second}
	g.run(context.Background())
	if failed, correct, _, _ := tally(g.out); failed != 0 || !correct {
		t.Fatalf("valid route: failed=%d correct=%v", failed, correct)
	}
}

// Two requests due together on one connection: the second waits for
// the first, and that wait is part of its latency, while the
// generator's own lag stays small because it dispatched both on time.
func TestOpenLoopTimesFromDueAndReportsLag(t *testing.T) {
	const service = 40 * time.Millisecond
	p := testPlan(100*time.Millisecond, 0, 0)
	g := &loadgen{cl: fakeKhopd(t, []int{0, 1, 2}, service, false), plan: p, conns: 1, drain: time.Second}
	g.run(context.Background())
	second := slices.MaxFunc(g.out, func(a, b outcome) int { return int(a.Sent - b.Sent) })
	if lat := latency(&p.ops[1], &second, p.spec.Limit); lat < 2*service {
		t.Errorf("queued request latency %v, want >= %v (its wait counts)", lat, 2*service)
	}
	for i, out := range g.out {
		if out.Lag < 0 || out.Lag > 20*time.Millisecond {
			t.Errorf("op %d: dispatch lag %v, want within [0, 20ms]", i, out.Lag)
		}
	}
	if got := g.maxOut.Load(); got != 2 {
		t.Errorf("max outstanding %d, want 2", got)
	}
}

// Requests still in flight or queued at the deadline are failures.
func TestInFlightAtDeadlineCountsAsFailure(t *testing.T) {
	p := testPlan(20*time.Millisecond, 0, 5*time.Millisecond)
	g := &loadgen{cl: fakeKhopd(t, nil, 0, true), plan: p, conns: 1, drain: 50 * time.Millisecond}
	start := time.Now()
	g.run(context.Background())
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("run took %v past its deadline", el)
	}
	failed, correct, byReason, _ := tally(g.out)
	if failed != 2 || !correct {
		t.Fatalf("failed=%d correct=%v reasons=%v; want 2 failures, outputs not wrong", failed, correct, byReason)
	}
	if byReason["in flight at the deadline"] != 1 || byReason["still queued at the deadline"] != 1 {
		t.Errorf("reasons %v", byReason)
	}
}

// The queue sends batches before reads and one deployment's batches
// one at a time, in order; a blocked batch does not hold up reads; and
// reads of a deployment with a batch in flight reach the server, at
// most conns-1 of them at once.
func TestQueueOrder(t *testing.T) {
	ops := []op{
		{Kind: opRoute, Dep: "d00"},     // 0
		{Kind: opChurn, Dep: "d00"},     // 1
		{Kind: opChurn, Dep: "d00"},     // 2
		{Kind: opRoute, Dep: "d00"},     // 3
		{Kind: opRoute, Dep: "d00"},     // 4
		{Kind: opRoute, Dep: "d01"},     // 5
		{Kind: opBroadcast, Dep: "d00"}, // 6
	}
	q := newQueue(ops, 2)
	for i := range ops {
		q.push(i)
	}
	next := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		i, ok := q.takeLocked()
		if !ok {
			return -1
		}
		return i
	}
	expect := func(want int, why string) {
		t.Helper()
		if got := next(); got != want {
			t.Fatalf("%s: took op %d, want %d", why, got, want)
		}
	}
	expect(1, "batches first")
	expect(0, "second batch of a busy deployment waits; earliest read goes, parked")
	expect(5, "parked-read cap reached; a read of an idle deployment still goes")
	expect(-1, "nothing else may go")
	q.done(0)
	expect(3, "a parked read finished, so the next read of the busy deployment goes")
	q.done(1)
	expect(2, "the deployment's next batch, once its first is done")
	expect(-1, "op 3 is still parked behind the second batch")
	q.done(3)
	expect(4, "read parked behind the second batch")
	q.done(2)
	q.done(4)
	expect(6, "last read")
	expect(-1, "queue empty")
	if q.nParked != 0 {
		t.Errorf("%d parked reads after every read finished", q.nParked)
	}
}

// A churn batch takes nodes down and brings them back with every
// original edge, so the served topology is the generated one between
// batches — the premise of checkRoute.
func TestChurnBatchRestoresTopology(t *testing.T) {
	topo, err := genTopology(300, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := buildEngine(context.Background(), topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 20; b++ {
		_, batch, err := khopEvents(churnBatch(topo, rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(context.Background(), batch...); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if got := eng.CurrentGraph().Edges(); !reflect.DeepEqual(got, topo.edges) {
		t.Fatalf("after churn the graph has %d edges, want the original %d", len(got), len(topo.edges))
	}
	if err := khop.VerifyResult(eng.CurrentGraph(), eng.Result()); err != nil {
		t.Fatal(err)
	}
}

// The seed fixes every input, and each step's sample sizes are fixed.
func TestPlanIsDeterministic(t *testing.T) {
	w, err := workloadByName("many_small")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	a, err := newPlan(w, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlan(w, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ops, b.ops) {
		t.Fatal("two plans from one seed differ")
	}
	c, err := newPlan(w, 4, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	count := func(p *plan, step int) (n int) {
		for _, o := range p.ops {
			if o.Kind != opChurn && o.Step == step {
				n++
			}
		}
		return n
	}
	for s := 0; s < 3; s++ {
		if count(a, s) != count(c, s) {
			t.Errorf("step %d: %d reads with seed 3, %d with seed 4", s, count(a, s), count(c, s))
		}
	}
}

package broadcast

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
)

// FullBFSPlan is the whole-graph reference for NewPlan: one unbounded
// BFS per listed head, then every member's tree path walked on those
// distances. NewPlan must equal it on every input, verified or not.
// Exported (test-only) for the engine-driven differential in
// plan_diff_test.go.
func FullBFSPlan(g *graph.Graph, c *cluster.Clustering, res *gateway.Result) *Plan {
	p := &Plan{forward: make([]bool, g.N())}
	for _, v := range res.CDS {
		p.forward[v] = true
	}
	distFrom := make(map[int][]int, len(c.Heads))
	for _, h := range c.Heads {
		distFrom[h] = g.BFS(h)
	}
	for v, h := range c.Head {
		d := distFrom[h]
		if d == nil {
			continue // departed slot: self-headed but not a listed head
		}
		for cur := v; d[cur] > 1; {
			for _, u := range g.Neighbors(cur) {
				if d[u] == d[cur]-1 {
					p.forward[u] = true
					cur = u
					break
				}
			}
		}
	}
	for _, f := range p.forward {
		if f {
			p.size++
		}
	}
	return p
}

// samePlan reports the first node on which two plans disagree, or ""
// when they are identical.
func samePlan(got, want *Plan) string {
	if len(got.forward) != len(want.forward) {
		return "plans cover different node counts"
	}
	for v := range want.forward {
		if got.Forwards(v) != want.Forwards(v) {
			return fmt.Sprintf("node %d: Forwards = %v, want %v", v, got.Forwards(v), want.Forwards(v))
		}
	}
	if got.ForwarderCount() != want.ForwarderCount() {
		return fmt.Sprintf("ForwarderCount = %d, want %d", got.ForwarderCount(), want.ForwarderCount())
	}
	return ""
}

// diamondScene is a hand-assembled clustering that VerifyResult would
// reject: head 0 (K=2) lists member 4 three hops away, behind the
// diamond 0–{1,2}–3. Only 4's tree path makes 3 a forwarder, so a plan
// that trusted the K bound would drop it. Head 6 is a well-formed
// second cluster, and 9 is a departed slot.
func diamondScene() (*graph.Graph, *cluster.Clustering, *gateway.Result) {
	g := graph.New(10)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {7, 8}} {
		g.AddEdge(e[0], e[1])
	}
	c := &cluster.Clustering{
		K:     2,
		Head:  []int{0, 0, 0, 0, 0, 6, 6, 0, 0, 9},
		Heads: []int{0, 6},
	}
	return g, c, &gateway.Result{CDS: []int{0, 6}}
}

// TestPlanFallbackBeyondK: a member K+1 hops from its head sends that
// head to the unbounded walk, and the plan still equals the reference.
func TestPlanFallbackBeyondK(t *testing.T) {
	g, c, res := diamondScene()
	c.Head[7], c.Head[8] = 6, 6 // keep this case connected: 7 and 8 are 6's
	g.AddEdge(6, 7)
	got, want := NewPlan(g, c, res), FullBFSPlan(g, c, res)
	if diff := samePlan(got, want); diff != "" {
		t.Fatalf("bounded plan differs from the reference: %s", diff)
	}
	if !got.Forwards(3) || !got.Forwards(1) || got.Forwards(2) {
		t.Fatalf("member 4's tree path 4→3→1→0 not in the plan (3:%v 1:%v 2:%v)",
			got.Forwards(3), got.Forwards(1), got.Forwards(2))
	}
}

// TestPlanFallbackUnreachable: members 7 and 8 cannot reach head 0 at
// all (another component). The fallback walk finds no path for them,
// exactly like the reference, and the rest of the plan is unaffected.
func TestPlanFallbackUnreachable(t *testing.T) {
	g, c, res := diamondScene()
	got, want := NewPlan(g, c, res), FullBFSPlan(g, c, res)
	if diff := samePlan(got, want); diff != "" {
		t.Fatalf("bounded plan differs from the reference: %s", diff)
	}
	if got.Forwards(7) || got.Forwards(8) || got.Forwards(9) {
		t.Fatal("an unreachable member or a departed slot became a forwarder")
	}
}

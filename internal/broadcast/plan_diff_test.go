package broadcast_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	khop "repro"
	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
)

// TestPlanMatchesFullBFS is the differential test of the k-ball plan:
// across seeds, k ∈ {1,2,3} and all five algorithms, the public
// NewBroadcastPlan equals the whole-graph-BFS reference on every node,
// on a fresh Engine build and after every batch of a random
// Leave/Join/Move sequence driven through Engine.Apply.
func TestPlanMatchesFullBFS(t *testing.T) {
	ctx := context.Background()
	algos := []khop.Algorithm{khop.NCMesh, khop.ACMesh, khop.NCLMST, khop.ACLMST, khop.GMST}
	for seed := int64(1); seed <= 3; seed++ {
		net, err := khop.RandomNetwork(khop.NetworkConfig{N: 120, AvgDegree: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph()
		for _, k := range []int{1, 2, 3} {
			for _, algo := range algos {
				name := fmt.Sprintf("seed=%d/k=%d/%v", seed, k, algo)
				e, err := khop.NewEngine(g, khop.WithK(k), khop.WithAlgorithm(algo))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Build(ctx); err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				checkPlan(t, name+"/fresh", e)
				rng := rand.New(rand.NewSource(seed*100 + int64(k)))
				for b, batch := range churnBatches(g, 6, 4, rng) {
					if _, err := e.Apply(ctx, batch...); err != nil {
						t.Fatalf("%s: batch %d: %v", name, b, err)
					}
					checkPlan(t, fmt.Sprintf("%s/batch=%d", name, b), e)
				}
			}
		}
	}
}

// checkPlan compares the engine's current plan with the reference
// computed on the same topology and clustering.
func checkPlan(t *testing.T, name string, e *khop.Engine) {
	t.Helper()
	cur, res := e.CurrentGraph(), e.Result()
	plan, err := khop.NewBroadcastPlan(cur, res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g := graph.New(cur.N())
	for _, edge := range cur.Edges() {
		g.AddEdge(edge[0], edge[1])
	}
	c := &cluster.Clustering{K: res.K, Head: res.HeadOf, Heads: res.Heads}
	want := broadcast.FullBFSPlan(g, c, &gateway.Result{CDS: res.CDS})
	for v := 0; v < cur.N(); v++ {
		if plan.Forwards(v) != want.Forwards(v) {
			t.Fatalf("%s: node %d: Forwards = %v, reference %v", name, v, plan.Forwards(v), want.Forwards(v))
		}
	}
	if plan.ForwarderCount() != want.ForwarderCount() {
		t.Fatalf("%s: ForwarderCount = %d, reference %d", name, plan.ForwarderCount(), want.ForwarderCount())
	}
}

// churnBatches generates a liveness-consistent sequence of batches over
// g: nodes leave, rejoin with their original live links, and move onto
// half of them. No node appears twice in one batch.
func churnBatches(g *khop.Graph, batches, size int, rng *rand.Rand) [][]khop.Event {
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	live := func(v int) []int {
		var out []int
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				out = append(out, w)
			}
		}
		return out
	}
	var dead []int
	out := make([][]khop.Event, batches)
	for b := range out {
		used := map[int]bool{}
		for len(out[b]) < size {
			v := rng.Intn(n)
			join := len(dead) > 0 && rng.Intn(3) == 0
			if join {
				v = dead[len(dead)-1]
			}
			if used[v] || !alive[v] && !join {
				continue
			}
			used[v] = true
			switch nbrs := live(v); {
			case join:
				alive[v] = true
				dead = dead[:len(dead)-1]
				out[b] = append(out[b], khop.Join(v, nbrs...))
			case rng.Intn(3) == 0:
				out[b] = append(out[b], khop.Move(v, nbrs[:(len(nbrs)+1)/2]...))
			default:
				alive[v] = false
				dead = append(dead, v)
				out[b] = append(out[b], khop.Leave(v))
			}
		}
	}
	return out
}

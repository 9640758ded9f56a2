package khop

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// fullBFSRouter is the whole-graph reference for Router.Route: the same
// hierarchical route, with every intra-cluster leg and link fallback
// found by an unbounded BFS (graph.ShortestPath) instead of the
// router's early-exiting scratch walk.
func fullBFSRouter(t *testing.T, g *graph.Graph, res *Result) func(src, dst int) ([]int, error) {
	t.Helper()
	c, gres, err := res.internals()
	if err != nil {
		t.Fatal(err)
	}
	backbone := graph.NewWGraph()
	for _, h := range c.Heads {
		backbone.AddVertex(h)
	}
	for _, l := range gres.Links {
		backbone.AddEdge(l.U, l.V, l.Weight)
	}
	join := func(a, b []int) []int {
		if len(a) == 0 {
			return b
		}
		if len(b) == 0 {
			return a
		}
		return append(slices.Clone(a), b[1:]...)
	}
	return func(src, dst int) ([]int, error) {
		if src == dst {
			return []int{src}, nil
		}
		hs, hd := c.Head[src], c.Head[dst]
		if hs == hd {
			return join(g.ShortestPath(src, hs), g.ShortestPath(hs, dst)), nil
		}
		headPath := backbone.ShortestPath(hs, hd)
		if headPath == nil {
			return nil, fmt.Errorf("no backbone path between heads %d and %d", hs, hd)
		}
		route := g.ShortestPath(src, hs)
		for i := 0; i+1 < len(headPath); i++ {
			u, v := headPath[i], headPath[i+1]
			leg := gres.Paths[[2]int{min(u, v), max(u, v)}]
			switch {
			case len(leg) == 0:
				leg = g.ShortestPath(u, v)
			case leg[0] != u:
				leg = slices.Clone(leg)
				slices.Reverse(leg)
			}
			route = join(route, leg)
		}
		return join(route, g.ShortestPath(hd, dst)), nil
	}
}

// TestRouteMatchesFullBFS is the differential test of the k-ball route
// legs: across seeds, k ∈ {1,2,3} and all five algorithms, Router.Route
// equals the whole-graph-BFS reference on sampled pairs — src == dst,
// same-cluster pairs, departed-slot endpoints and random pairs — on a
// fresh Engine build and after every churn batch through Engine.Apply.
func TestRouteMatchesFullBFS(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		net := testNetwork(t, 120, 7, seed)
		g := net.Graph()
		for _, k := range []int{1, 2, 3} {
			for _, algo := range []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST} {
				name := fmt.Sprintf("seed=%d/k=%d/%v", seed, k, algo)
				e, err := NewEngine(g, WithK(k), WithAlgorithm(algo))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Build(ctx); err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				rng := rand.New(rand.NewSource(seed*100 + int64(k)))
				checkRoutes(t, name+"/fresh", e, rng)
				for b, batch := range churnTrace(g, 6, 4, rng) {
					if _, err := e.Apply(ctx, batch...); err != nil {
						t.Fatalf("%s: batch %d: %v", name, b, err)
					}
					checkRoutes(t, fmt.Sprintf("%s/batch=%d", name, b), e, rng)
				}
			}
		}
	}
}

// checkRoutes compares the engine's current router with the reference
// on a sample of pairs.
func checkRoutes(t *testing.T, name string, e *Engine, rng *rand.Rand) {
	t.Helper()
	cur, res := e.CurrentGraph(), e.Result()
	router, err := NewRouter(cur, res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := fullBFSRouter(t, cur.g, res)
	n := cur.N()
	pairs := [][2]int{{0, 0}, {n - 1, n - 1}}
	first := map[int]int{} // head → first member seen, for same-cluster pairs
	for v, h := range res.HeadOf {
		if !e.Alive(v) {
			pairs = append(pairs, [2]int{v, rng.Intn(n)}, [2]int{rng.Intn(n), v}, [2]int{v, v})
			continue
		}
		if f, ok := first[h]; ok {
			pairs = append(pairs, [2]int{f, v}, [2]int{v, h})
		} else {
			first[h] = v
		}
	}
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	for _, p := range pairs {
		got, gotErr := router.Route(p[0], p[1])
		ref, refErr := want(p[0], p[1])
		if !slices.Equal(got, ref) || (gotErr == nil) != (refErr == nil) {
			t.Fatalf("%s: route %d→%d = %v (err %v), reference %v (err %v)",
				name, p[0], p[1], got, gotErr, ref, refErr)
		}
	}
}

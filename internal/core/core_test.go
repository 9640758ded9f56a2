package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cds"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/ncr"
	"repro/internal/udg"
)

func TestBuildPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := udg.Generate(udg.Config{N: 80, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range gateway.Algorithms {
		out, err := BuildCtx(context.Background(), net.G, Options{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if err := cds.CheckClustering(net.G, out.Clustering); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := cds.CheckKHopCDS(net.G, out.Gateway.CDS, 2); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if out.Selection == nil {
			t.Fatalf("%v: nil selection", algo)
		}
	}
}

func TestBuildRejectsBadK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := udg.Generate(udg.Config{N: 20, AvgDegree: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCtx(context.Background(), net.G, Options{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSelectionForRules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := udg.Generate(udg.Config{N: 60, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: 2})
	selectionFor := func(algo gateway.Algorithm) *ncr.Selection {
		t.Helper()
		sel, err := SelectionForCtx(context.Background(), net.G, c, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	acSel := selectionFor(gateway.ACLMST)
	ncSel := selectionFor(gateway.NCLMST)
	if acSel.Rule != ncr.RuleANCR || ncSel.Rule != ncr.RuleNC {
		t.Fatalf("rules: %v %v", acSel.Rule, ncSel.Rule)
	}
	if !reflect.DeepEqual(selectionFor(gateway.GMST).Neighbors, ncSel.Neighbors) {
		t.Fatal("GMST should report the NC view")
	}
}

// TestBuildScalarMatchesBatched is the oracle of the CSR + multi-source
// batched BFS fast path: across a seed sweep, every algorithm and k, a
// ScalarBFS build (every traversal a per-source walk) and the default
// batched build produce bitwise identical Outputs — clustering,
// selection, and gateway result, paths and all. The 3-worker legs run
// both paths' loop bodies inside a multi-shard partition.Pool.Shard.
func TestBuildScalarMatchesBatched(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 7, 19, 42} {
		rng := rand.New(rand.NewSource(seed))
		net, err := udg.Generate(udg.Config{N: 80, AvgDegree: 7, RequireConnected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range gateway.Algorithms {
			for k := 1; k <= 3; k++ {
				batched, err := BuildCtx(ctx, net.G, Options{K: k, Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					s := NewScratch()
					for _, scalarBFS := range []bool{true, false} {
						out, err := BuildCtx(ctx, net.G, Options{K: k, Algorithm: algo, Scratch: s, Pool: s.Par(workers), ScalarBFS: scalarBFS})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(batched, out) {
							t.Fatalf("seed=%d %v k=%d workers=%d scalar=%v: output differs from the serial batched build", seed, algo, k, workers, scalarBFS)
						}
					}
				}
			}
		}
	}
}

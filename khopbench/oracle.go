package main

import (
	"bytes"
	"context"
	"fmt"

	khop "repro"
	"repro/api"
	"repro/internal/codec"
)

// graph returns a fresh copy of the canonical graph, built from the
// edge list exactly as khopd builds it from a create request.
func (t *topology) newGraph() *khop.Graph {
	g := khop.NewGraph(t.n)
	for _, e := range t.edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// buildEngine is the library oracle of a created deployment: the same
// edges and options the create request carries.
func buildEngine(ctx context.Context, t *topology, parallel int) (*khop.Engine, error) {
	algo, err := khop.AlgorithmByName(clusterAlgo)
	if err != nil {
		return nil, err
	}
	eng, err := khop.NewEngine(t.newGraph(), khop.WithK(clusterK), khop.WithAlgorithm(algo), khop.WithParallel(parallel))
	if err != nil {
		return nil, err
	}
	if _, err := eng.Build(ctx); err != nil {
		return nil, err
	}
	return eng, nil
}

// encodeEngine is the deployment's snapshot as khopd emits it.
func encodeEngine(eng *khop.Engine, mode khop.Mode) ([]byte, error) {
	snap, err := codec.FromEngine(eng, mode)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// khopEvents converts a wire batch the way khopd does.
func khopEvents(evs []api.EventRequest) ([]codec.Event, []khop.Event, error) {
	wire := make([]codec.Event, len(evs))
	batch := make([]khop.Event, len(evs))
	for i, ev := range evs {
		kind, err := codec.ParseEventKind(ev.Kind)
		if err != nil {
			return nil, nil, err
		}
		wire[i] = codec.Event{Kind: kind, Node: ev.Node, Neighbors: ev.Neighbors}
		if batch[i], err = wire[i].Khop(); err != nil {
			return nil, nil, err
		}
	}
	return wire, batch, nil
}

// newOracle is the library replica of deployment dep at the start of
// the load: built from its edges, or restored from the blob khopd got.
func newOracle(ctx context.Context, p *plan, dep string, parallel int) (*khop.Engine, error) {
	if blob := p.blobs[dep]; blob != nil {
		snap, err := codec.DecodeBytes(blob)
		if err != nil {
			return nil, err
		}
		return snap.Restore(khop.WithParallel(parallel))
	}
	return buildEngine(ctx, p.topo[dep], parallel)
}

// checkFinal replays every acked batch of the served run into a library
// oracle per deployment and requires khopd's final snapshot to be
// byte-identical to the oracle's.
func checkFinal(ctx context.Context, p *plan, outs []outcome, fetch func(context.Context, string) ([]byte, error)) error {
	for _, dep := range p.allDeps() {
		eng, err := newOracle(ctx, p, dep, 1)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", dep, err)
		}
		for i := range p.ops {
			o := &p.ops[i]
			if o.Kind != opChurn || o.Dep != dep || outs[i].Fail != "" {
				continue
			}
			_, batch, err := khopEvents(o.Events)
			if err != nil {
				return err
			}
			if _, err := eng.Apply(ctx, batch...); err != nil {
				return fmt.Errorf("oracle %s: batch %d: %w", dep, i, err)
			}
		}
		want, err := encodeEngine(eng, khop.Centralized)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", dep, err)
		}
		got, err := fetch(ctx, dep)
		if err != nil {
			return fmt.Errorf("fetching %s snapshot: %w", dep, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("deployment %s: served snapshot (%d bytes) differs from the oracle's (%d bytes)", dep, len(got), len(want))
		}
	}
	return nil
}

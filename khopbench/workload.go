package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	khop "repro"
	"repro/api"
)

// Every workload clusters with k=2 and AC-LMST.
const (
	clusterK    = 2
	clusterAlgo = "AC-LMST"
	// batchLeaves is the number of nodes one churn batch takes down and
	// brings back: Leave each, then rejoin each with its original
	// still-alive neighbours, so a batch has 2*batchLeaves events and
	// leaves the topology as it found it.
	batchLeaves = 4
	// probeID names big_read's churn deployment (see spec.ChurnProbe).
	probeID = "probe"
)

// spec is one workload: what gets provisioned, the open-loop read and
// churn streams offered to it, and how much of the run the traced
// replay re-executes.
type spec struct {
	Name string
	Why  string
	// Deployments receive the reads (and, unless ChurnProbe, the churn);
	// each is a UDG topology of N nodes at average degree Degree.
	Deployments int
	N           int
	Degree      float64
	// Restore provisions by POST .../snapshot of a blob the benchmark
	// encodes in-process, instead of an explicit-edge create.
	Restore bool
	// Ladder is the fixed read-rate ladder (reads/s). Ladder[0] is the
	// nominal rate every latency metric is measured at. The upper two
	// steps probe for the printed read_capacity_qps; README.md says why
	// that metric is not gated.
	Ladder [3]float64
	// RouteShare is the fraction of reads that are route queries; the
	// rest are broadcasts.
	RouteShare float64
	// ChurnRate is the total rate of churn batches (batches/s), sent
	// round-robin to the churn targets and kept at nominal for the whole
	// run.
	ChurnRate float64
	// ChurnProbe sends the churn to a separate n=1000 deployment instead
	// of the read deployments, so reads never wait on a write lock or a
	// refresh while the churn metrics still exist.
	ChurnProbe bool
	// Limit is the read p99 a ladder step must meet to count towards
	// read_capacity_qps.
	Limit time.Duration
	// SetupReps is how many times setup is timed; setup_s is the median.
	SetupReps int
	// ReplayBatches caps the acked batches the traced replay covers: it
	// replays the schedule up to the due time of batch ReplayBatches+1.
	ReplayBatches int
	// ReplayReads caps the reads sampled into the traced replay.
	ReplayReads int
}

// stepShares split a run's load window over the three ladder steps:
// the nominal step gets the larger share because every latency metric
// comes from it.
var stepShares = [3]float64{0.7, 0.15, 0.15}

var workloads = []spec{
	{
		Name:          "many_small",
		Why:           "16 small deployments: every layer is cheap, so per-request fixed costs (HTTP/JSON, locks, WAL fsync) set latency and capacity",
		Deployments:   16,
		N:             1000,
		Degree:        8,
		Ladder:        [3]float64{800, 2000, 5600},
		RouteShare:    0.7,
		ChurnRate:     8,
		Limit:         200 * time.Millisecond,
		SetupReps:     9,
		ReplayBatches: 96,
		ReplayReads:   400,
	},
	{
		Name:          "big_churn",
		Why:           "two n=5000 deployments under churn: each batch holds the write lock through Apply and the refresh, so refresh and lock wait set churn latency and the read tail",
		Deployments:   2,
		N:             5000,
		Degree:        12,
		Ladder:        [3]float64{150, 1150, 2400},
		RouteShare:    0.5,
		ChurnRate:     1.2,
		Limit:         500 * time.Millisecond,
		SetupReps:     9,
		ReplayBatches: 8,
		ReplayReads:   300,
	},
	{
		Name:          "big_read",
		Why:           "big_churn's two n=5000 topologies restored from snapshots, reads only: per-query O(N) work sets latency and capacity; no refresh, no lock wait",
		Deployments:   2,
		N:             5000,
		Degree:        12,
		Restore:       true,
		Ladder:        [3]float64{200, 1150, 2200},
		RouteShare:    0.5,
		ChurnRate:     8,
		ChurnProbe:    true,
		Limit:         200 * time.Millisecond,
		SetupReps:     9,
		ReplayBatches: 48,
		ReplayReads:   300,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a seconds-long run on small topologies
// that still supports every reported percentile.
func (w spec) smoke() spec {
	w.N = 300
	if w.Deployments > 4 {
		w.Deployments = 4
	}
	w.Ladder = [3]float64{700, 1000, 1400}
	w.RouteShare = 0.5
	w.ChurnRate = 30
	w.Limit = 500 * time.Millisecond
	w.SetupReps = 2
	w.ReplayBatches = 8
	w.ReplayReads = 60
	return w
}

// topology is one generated deployment topology: the canonical graph
// the server and the oracle both build from the edge list.
type topology struct {
	n     int
	edges [][2]int
	graph *khop.Graph
}

// genTopology draws a connected UDG from seed. A seed whose draw stays
// disconnected through the generator's retries moves on to derived
// seeds, so every seed yields a topology.
func genTopology(n int, degree float64, seed int64) (*topology, error) {
	for attempt := int64(0); attempt < 16; attempt++ {
		net, err := khop.RandomNetwork(khop.NetworkConfig{N: n, AvgDegree: degree, Seed: seed*1009 + attempt})
		if errors.Is(err, khop.ErrDisconnected) {
			continue
		}
		if err != nil {
			return nil, err
		}
		edges := net.Graph().Edges()
		g := khop.NewGraph(n)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		return &topology{n: n, edges: edges, graph: g}, nil
	}
	return nil, fmt.Errorf("no connected n=%d degree-%g topology from seed %d", n, degree, seed)
}

type opKind int

const (
	opRoute opKind = iota
	opBroadcast
	opChurn
)

func (k opKind) String() string {
	return [...]string{"route", "broadcast", "churn"}[k]
}

// op is one scheduled request of the open-loop schedule.
type op struct {
	Kind opKind
	Step int           // ladder step the op's due time falls in
	Due  time.Duration // offset from the start of the load window
	Dep  string
	// Src and Dst are the query endpoints (Dst for routes only).
	Src, Dst int
	// Events is a churn batch.
	Events []api.EventRequest
}

// plan is everything a run offers to khopd, derived from the seed.
type plan struct {
	spec     spec
	window   time.Duration    // load window (the --seconds argument)
	stepEnds [3]time.Duration // end offset of each ladder step
	readDeps []string
	topo     map[string]*topology
	// blobs holds, for a Restore workload, each read deployment's
	// snapshot as the benchmark encodes it from a fresh build.
	blobs map[string][]byte
	ops   []op
}

// depName is the id of read deployment j.
func depName(j int) string { return fmt.Sprintf("d%02d", j) }

// newPlan generates the topologies and the whole schedule from seed.
func newPlan(w spec, seed int64, window time.Duration) (*plan, error) {
	p := &plan{spec: w, window: window, topo: make(map[string]*topology)}
	var off time.Duration
	for i, share := range stepShares {
		off += time.Duration(float64(window) * share)
		p.stepEnds[i] = off
	}
	p.stepEnds[2] = window
	for j := 0; j < w.Deployments; j++ {
		id := depName(j)
		t, err := genTopology(w.N, w.Degree, seed*100+int64(j))
		if err != nil {
			return nil, err
		}
		p.readDeps = append(p.readDeps, id)
		p.topo[id] = t
		if w.Restore {
			eng, err := buildEngine(context.Background(), t, 0)
			if err != nil {
				return nil, err
			}
			if p.blobs == nil {
				p.blobs = make(map[string][]byte)
			}
			if p.blobs[id], err = encodeEngine(eng, khop.Centralized); err != nil {
				return nil, err
			}
		}
	}
	churnDeps := p.readDeps
	if w.ChurnProbe {
		t, err := genTopology(1000, 8, seed*100+99)
		if err != nil {
			return nil, err
		}
		p.topo[probeID] = t
		churnDeps = []string{probeID}
	}

	rng := rand.New(rand.NewSource(seed))
	var ops []op
	// Reads: within each step a fixed count of arrivals, each uniform
	// over the step — a Poisson process conditioned on its count, so
	// every run of a workload has the same sample sizes.
	start := time.Duration(0)
	for s := 0; s < 3; s++ {
		dur := p.stepEnds[s] - start
		total := int(math.Round(w.Ladder[s] * dur.Seconds()))
		routes := int(math.Round(float64(total) * w.RouteShare))
		for i := 0; i < total; i++ {
			o := op{Kind: opBroadcast, Step: s, Due: start + time.Duration(rng.Int63n(int64(dur)))}
			if i < routes {
				o.Kind = opRoute
			}
			o.Dep = p.readDeps[rng.Intn(len(p.readDeps))]
			n := p.topo[o.Dep].n
			o.Src = rng.Intn(n)
			if o.Kind == opRoute {
				o.Dst = rng.Intn(n - 1)
				if o.Dst >= o.Src {
					o.Dst++
				}
			}
			ops = append(ops, o)
		}
		start = p.stepEnds[s]
	}
	// Churn: the workload's mobility clock ticks every 1/ChurnRate
	// seconds with ±10% jitter, independent of replies; tick k sends a
	// fresh batch to target k mod len(targets). Round-robin keeps the
	// batches of different deployments interleaved, so how often two
	// refreshes overlap does not depend on the seed.
	gap := time.Duration(float64(time.Second) / w.ChurnRate)
	for k := 0; ; k++ {
		jitter := time.Duration((rng.Float64() - 0.5) * 0.2 * float64(gap))
		due := time.Duration(k)*gap + gap/2 + jitter
		if due >= window {
			break
		}
		id := churnDeps[k%len(churnDeps)]
		ops = append(ops, op{Kind: opChurn, Step: p.stepOf(due), Due: due, Dep: id, Events: churnBatch(p.topo[id], rng)})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].Due < ops[b].Due })
	p.ops = ops
	return p, nil
}

func (p *plan) stepOf(due time.Duration) int {
	for s, end := range p.stepEnds {
		if due < end {
			return s
		}
	}
	return 2
}

// churnBatch takes batchLeaves distinct random nodes down and brings
// each back with its original neighbours that are alive at that point
// of the batch. After the batch every original edge is back, so every
// batch starts from the same topology and route checks can use it.
func churnBatch(t *topology, rng *rand.Rand) []api.EventRequest {
	down := make(map[int]bool, batchLeaves)
	var order []int
	for len(order) < batchLeaves {
		v := rng.Intn(t.n)
		if !down[v] {
			down[v] = true
			order = append(order, v)
		}
	}
	evs := make([]api.EventRequest, 0, 2*batchLeaves)
	for _, v := range order {
		evs = append(evs, api.EventRequest{Kind: "leave", Node: v})
	}
	for _, v := range order {
		delete(down, v)
		nbrs := []int{}
		for _, u := range t.graph.Neighbors(v) {
			if !down[u] {
				nbrs = append(nbrs, u)
			}
		}
		evs = append(evs, api.EventRequest{Kind: "join", Node: v, Neighbors: nbrs})
	}
	return evs
}

// allDeps lists every deployment the run provisions.
func (p *plan) allDeps() []string {
	if p.spec.ChurnProbe {
		return append(append([]string(nil), p.readDeps...), probeID)
	}
	return p.readDeps
}

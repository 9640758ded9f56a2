package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"time"

	khop "repro"
	"repro/api"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed call of the traced replay. Spans of one replayed
// operation share Op; Parent is the enclosing span's ID (0 at the top).
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Dep    string  `json:"dep"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory; with on false it only runs the calls,
// which is the untraced pass the overhead ratio compares against.
type tracer struct {
	on    bool
	start time.Time
	spans []span
	op    int
	dep   string
}

// begin starts a new replayed operation on deployment dep.
func (t *tracer) begin(dep string) {
	t.op++
	t.dep = dep
}

func (t *tracer) open(parent int, name string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name, Dep: t.dep, Start: ms(time.Since(t.start))})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	if id > 0 {
		t.spans[id-1].End = ms(time.Since(t.start))
	}
}

// time runs fn inside a span named name under parent.
func (t *tracer) time(parent int, name string, fn func()) {
	id := t.open(parent, name)
	fn()
	t.close(id)
}

// replica is the oracle side of one deployment in the replay: the
// library engine plus the structures khopd derives from it, and a WAL
// of its own.
type replica struct {
	eng    *khop.Engine
	mode   khop.Mode
	cur    *khop.Graph
	router *khop.Router
	plan   *khop.BroadcastPlan
	log    *wal.Log
}

// counts are the replay's exact counts, the same on every pass.
type counts struct {
	hops, stretch, txRatio []float64
	reclustered            []float64
	gwRuns, gwSaved        int
	walBytes, walEvents    int
	forwarders             int
	snapshotBytes          int
}

// replayer re-executes the start of a served run sequentially against
// an in-process khopd server and the library oracle. Each replayed
// operation is a root span whose children are the server call
// (server.*) and the same work done by the oracle through each layer's
// public function.
type replayer struct {
	p    *plan
	outs []outcome
	dir  string
	tr   *tracer
	h    http.Handler
	reps map[string]*replica
	c    counts
}

// minSamples is the least number of samples the replay takes of a
// layer that a run would otherwise time only once.
const minSamples = 3

func (r *replayer) serve(method, path string, body []byte, want int) ([]byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, req)
	if rec.Code != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// refresh re-derives the replica's router and plan exactly as khopd's
// deployment.refresh does.
func (r *replayer) refresh(parent int, rep *replica) error {
	var errR, errP error
	id := r.tr.open(parent, "server.refresh")
	res := rep.eng.Result()
	r.tr.time(id, "graph.clone", func() { rep.cur = rep.eng.CurrentGraph() })
	r.tr.time(id, "routing.new_router", func() { rep.router, errR = khop.NewRouter(rep.cur, res) })
	r.tr.time(id, "broadcast.new_plan", func() { rep.plan, errP = khop.NewBroadcastPlan(rep.cur, res) })
	r.tr.close(id)
	if errR != nil {
		return errR
	}
	return errP
}

func (r *replayer) addReplica(dep string, rep *replica) error {
	l, _, err := wal.Open(filepath.Join(r.dir, "oracle-wal", dep), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	rep.log = l
	r.reps[dep] = rep
	return nil
}

// create replays POST /v1/deployments.
func (r *replayer) create(ctx context.Context, dep string) error {
	t := r.p.topo[dep]
	body, err := json.Marshal(api.CreateRequest{ID: dep, N: t.n, Edges: t.edges, K: clusterK, Algorithm: clusterAlgo})
	if err != nil {
		return err
	}
	r.tr.begin(dep)
	root := r.tr.open(0, "replay.create")
	defer r.tr.close(root)
	r.tr.time(root, "server.create", func() {
		_, err = r.serve(http.MethodPost, "/v1/deployments", body, http.StatusCreated)
	})
	if err != nil {
		return err
	}
	rep := &replica{mode: khop.Centralized}
	r.tr.time(root, "khop.build", func() { rep.eng, err = buildEngine(ctx, t, 0) })
	if err != nil {
		return err
	}
	if err := r.refresh(root, rep); err != nil {
		return err
	}
	r.tr.time(root, "codec.encode", func() { _, err = encodeEngine(rep.eng, rep.mode) })
	if err != nil {
		return err
	}
	return r.addReplica(dep, rep)
}

// restore replays POST /v1/deployments/{id}/snapshot of blob.
func (r *replayer) restore(dep string, blob []byte) error {
	var err error
	r.tr.begin(dep)
	root := r.tr.open(0, "replay.restore")
	defer r.tr.close(root)
	r.tr.time(root, "server.restore", func() {
		_, err = r.serve(http.MethodPost, "/v1/deployments/"+dep+"/snapshot", blob, http.StatusCreated)
	})
	if err != nil {
		return err
	}
	var snap *codec.Snapshot
	r.tr.time(root, "codec.decode", func() { snap, err = codec.DecodeBytes(blob) })
	if err != nil {
		return err
	}
	rep := &replica{mode: snap.Mode}
	r.tr.time(root, "khop.restore", func() { rep.eng, err = snap.Restore(khop.WithParallel(0)) })
	if err != nil {
		return err
	}
	if err := r.refresh(root, rep); err != nil {
		return err
	}
	return r.addReplica(dep, rep)
}

// events replays one acked churn batch and checks the in-process
// server's repair reports against the oracle's.
func (r *replayer) events(ctx context.Context, o *op) error {
	rep := r.reps[o.Dep]
	body, err := json.Marshal(api.EventsRequest{Events: o.Events})
	if err != nil {
		return err
	}
	r.tr.begin(o.Dep)
	root := r.tr.open(0, "replay.events")
	defer r.tr.close(root)
	var raw []byte
	r.tr.time(root, "server.events", func() {
		raw, err = r.serve(http.MethodPost, "/v1/deployments/"+o.Dep+"/events", body, http.StatusOK)
	})
	if err != nil {
		return err
	}
	wire, batch, err := khopEvents(o.Events)
	if err != nil {
		return err
	}
	var payload []byte
	r.tr.time(root, "codec.append_events", func() { payload = codec.AppendEvents(nil, wire) })
	var reports []khop.RepairReport
	r.tr.time(root, "mobility.apply", func() { reports, err = rep.eng.Apply(ctx, batch...) })
	if err != nil {
		return err
	}
	if err := r.refresh(root, rep); err != nil {
		return err
	}
	var st wal.AppendStats
	app := r.tr.open(root, "wal.append")
	st, err = rep.log.Append(payload)
	r.tr.close(app)
	if err != nil {
		return err
	}
	if app > 0 {
		// The fsync inside the append, as the log times it.
		a := r.tr.spans[app-1]
		r.tr.spans = append(r.tr.spans, span{Op: a.Op, ID: len(r.tr.spans) + 1, Parent: app, Name: "wal.fsync", Dep: a.Dep, Start: a.Start, End: a.Start + ms(st.SyncDuration)})
	}
	r.c.walBytes += st.Bytes
	r.c.walEvents += len(o.Events)

	var resp api.EventsResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	want := make([]api.ReportResponse, len(reports))
	reclustered := 0
	for i, rp := range reports {
		want[i] = api.ReportResponse{
			Kind: rp.Kind.String(), Node: rp.Node, Role: rp.Role.String(),
			ReclusteredNodes: rp.ReclusteredNodes, ReselectedHeads: rp.ReselectedHeads, NewHeads: rp.NewHeads,
			GatewayDirty: rp.GatewayDirty, BatchGatewayRuns: rp.BatchGatewayRuns, BatchGatewaySaved: rp.BatchGatewaySaved,
		}
		reclustered += rp.ReclusteredNodes
	}
	if !reflect.DeepEqual(resp.Reports, want) {
		return fmt.Errorf("replayed batch due at %v on %s: server reports differ from the oracle's", o.Due, o.Dep)
	}
	if n := len(reports); n > 0 {
		r.c.gwRuns += reports[n-1].BatchGatewayRuns
		r.c.gwSaved += reports[n-1].BatchGatewaySaved
	}
	r.c.reclustered = append(r.c.reclustered, float64(reclustered))
	return nil
}

// route replays one route query and checks the server's path against
// the oracle router's.
func (r *replayer) route(o *op) error {
	rep := r.reps[o.Dep]
	r.tr.begin(o.Dep)
	root := r.tr.open(0, "replay.route")
	defer r.tr.close(root)
	var raw []byte
	var err error
	r.tr.time(root, "server.route", func() {
		raw, err = r.serve(http.MethodGet, "/v1/deployments/"+o.Dep+"/route?src="+strconv.Itoa(o.Src)+"&dst="+strconv.Itoa(o.Dst), nil, http.StatusOK)
	})
	if err != nil {
		return err
	}
	var path []int
	r.tr.time(root, "routing.route", func() { path, err = rep.router.Route(o.Src, o.Dst) })
	if err != nil {
		return err
	}
	var resp api.RouteResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if !slices.Equal(resp.Route, path) {
		return fmt.Errorf("replayed route %d->%d on %s: server path differs from the oracle's", o.Src, o.Dst, o.Dep)
	}
	stretch, err := rep.router.Stretch(o.Src, o.Dst)
	if err != nil {
		return err
	}
	r.c.hops = append(r.c.hops, float64(len(path)-1))
	r.c.stretch = append(r.c.stretch, stretch)
	return nil
}

// broadcast replays one broadcast query and checks it against the
// oracle's plan; the blind-flood cost it is compared with is untimed.
func (r *replayer) broadcast(o *op) error {
	rep := r.reps[o.Dep]
	r.tr.begin(o.Dep)
	root := r.tr.open(0, "replay.broadcast")
	defer r.tr.close(root)
	var raw []byte
	var err error
	r.tr.time(root, "server.broadcast", func() {
		raw, err = r.serve(http.MethodGet, "/v1/deployments/"+o.Dep+"/broadcast?src="+strconv.Itoa(o.Src), nil, http.StatusOK)
	})
	if err != nil {
		return err
	}
	var st khop.BroadcastStats
	r.tr.time(root, "broadcast.query", func() { st = rep.plan.Broadcast(o.Src) })
	var resp api.BroadcastResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if resp.Transmissions != st.Transmissions || resp.Reached != st.Reached || resp.Covered != st.Covered || resp.Forwarders != rep.plan.ForwarderCount() {
		return fmt.Errorf("replayed broadcast from %d on %s: server answer differs from the oracle's", o.Src, o.Dep)
	}
	blind := khop.BlindFlood(rep.cur, o.Src)
	r.c.txRatio = append(r.c.txRatio, float64(st.Transmissions)/float64(blind.Transmissions))
	return nil
}

// phases times one centralized build of dep's topology stage by stage,
// in core.BuildCtx's order and with its options, checks the stages
// compose to Engine.Build's result, and times VerifyResult on it.
func (r *replayer) phases(ctx context.Context, dep string) error {
	t := r.p.topo[dep]
	g := graph.New(t.n)
	for _, e := range t.edges {
		g.AddEdge(e[0], e[1])
	}
	algo, err := khop.AlgorithmByName(clusterAlgo)
	if err != nil {
		return err
	}
	s := core.NewScratch()
	pool := s.Par(runtime.GOMAXPROCS(0))
	r.tr.begin(dep)
	root := r.tr.open(0, "replay.build")
	defer r.tr.close(root)
	var fg *graph.FlatGraph
	r.tr.time(root, "graph.flatten", func() { fg = graph.Flatten(g) })
	var c *cluster.Clustering
	r.tr.time(root, "cluster.elect", func() {
		c, err = cluster.RunCtx(ctx, g, cluster.Options{K: clusterK, Pool: pool, Flat: fg}, cluster.NewScratch())
	})
	if err != nil {
		return err
	}
	var sel *ncr.Selection
	r.tr.time(root, "ncr.select", func() { sel, err = core.SelectionForPar(ctx, g, fg, c, algo, s.BFS(), pool) })
	if err != nil {
		return err
	}
	var gres *gateway.Result
	r.tr.time(root, "gateway.select", func() { gres, err = gateway.RunSelectedPar(ctx, g, fg, c, sel, algo, s.BFS(), pool) })
	if err != nil {
		return err
	}
	var eng *khop.Engine
	r.tr.time(root, "khop.build", func() { eng, err = buildEngine(ctx, t, 0) })
	if err != nil {
		return err
	}
	res := eng.Result()
	if !slices.Equal(c.Heads, res.Heads) || !slices.Equal(gres.Gateways, res.Gateways) || !slices.Equal(gres.CDS, res.CDS) {
		return fmt.Errorf("%s: the stage-by-stage build differs from Engine.Build", dep)
	}
	r.tr.time(root, "khop.verify", func() { err = khop.VerifyResult(t.graph, res) })
	return err
}

// window returns the schedule indices the replay covers: every op due
// before the (ReplayBatches+1)-th churn batch, keeping all acked
// batches and a deterministic sample of at most ReplayReads reads.
func (r *replayer) window() ([]int, error) {
	end, batches, reads := len(r.p.ops), 0, 0
	for i := range r.p.ops {
		if r.p.ops[i].Kind == opChurn {
			if batches == r.p.spec.ReplayBatches {
				end = i
				break
			}
			batches++
		}
	}
	for i := 0; i < end; i++ {
		if r.p.ops[i].Kind != opChurn {
			reads++
		}
	}
	every := (reads + r.p.spec.ReplayReads - 1) / r.p.spec.ReplayReads
	var idx []int
	seen := 0
	for i := 0; i < end; i++ {
		if r.p.ops[i].Kind == opChurn {
			if r.outs[i].Fail != "" {
				return nil, fmt.Errorf("batch %d was not acked; the served state is unknown", i)
			}
			idx = append(idx, i)
			continue
		}
		if seen%every == 0 {
			idx = append(idx, i)
		}
		seen++
	}
	return idx, nil
}

// run replays the window and then checks every deployment's snapshot
// on the in-process server against the oracle's, byte for byte.
func (r *replayer) run(ctx context.Context) error {
	srv := server.New(server.Config{StateDir: filepath.Join(r.dir, "state"), WALSync: wal.SyncAlways})
	r.h = srv.Handler()
	r.reps = make(map[string]*replica)
	defer func() {
		for _, rep := range r.reps {
			rep.log.Close()
		}
	}()
	idx, err := r.window()
	if err != nil {
		return err
	}
	for _, dep := range r.p.allDeps() {
		if blob := r.p.blobs[dep]; blob != nil {
			err = r.restore(dep, blob)
		} else {
			err = r.create(ctx, dep)
		}
		if err != nil {
			return fmt.Errorf("provisioning %s: %w", dep, err)
		}
	}
	for k := 0; k < minSamples; k++ {
		if err := r.phases(ctx, r.p.readDeps[k%len(r.p.readDeps)]); err != nil {
			return err
		}
	}
	for _, i := range idx {
		o := &r.p.ops[i]
		switch o.Kind {
		case opChurn:
			err = r.events(ctx, o)
		case opRoute:
			err = r.route(o)
		case opBroadcast:
			err = r.broadcast(o)
		}
		if err != nil {
			return err
		}
	}
	// Restore the first read deployment's current state under new ids
	// until decode and restore have minSamples samples each.
	first := r.p.readDeps[0]
	blob, err := encodeEngine(r.reps[first].eng, r.reps[first].mode)
	if err != nil {
		return err
	}
	r.c.snapshotBytes = len(blob)
	r.c.forwarders = r.reps[first].plan.ForwarderCount()
	restores := minSamples - len(r.p.blobs)
	for k := 0; k < restores; k++ {
		if err := r.restore(fmt.Sprintf("%s-restored-%d", first, k), blob); err != nil {
			return err
		}
	}
	for dep, rep := range r.reps {
		got, err := r.serve(http.MethodGet, "/v1/deployments/"+dep+"/snapshot", nil, http.StatusOK)
		if err != nil {
			return err
		}
		var want []byte
		r.tr.begin(dep)
		r.tr.time(0, "codec.encode", func() { want, err = encodeEngine(rep.eng, rep.mode) })
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replay: in-process snapshot of %s differs from the oracle's", dep)
		}
	}
	return nil
}

// layerMetrics turns the traced pass's spans and counts into the
// per-layer metrics. Timings are medians per call.
func layerMetrics(spans []span, c counts, readDeps []string) map[string]metric {
	isRead := make(map[string]bool)
	for _, d := range readDeps {
		isRead[d] = true
	}
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
	}
	// Structural layers are reported for the read deployments (the
	// restored copies count as the first one's); the churn path for
	// every churned deployment.
	readOnly := make(map[string][]float64)
	for _, s := range spans {
		base := s.Dep
		if j := len(readDeps[0]); len(base) > j && base[:j] == readDeps[0] {
			base = readDeps[0]
		}
		if isRead[base] {
			readOnly[s.Name] = append(readOnly[s.Name], s.ms())
		}
	}
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	for _, n := range []string{"server.create", "server.restore", "server.events", "server.route", "server.broadcast"} {
		put(n+"_ms", "ms", median(byName[n]))
		put(n+".self_ms", "ms", median(selfTimes(spans, n)))
	}
	for _, n := range []string{"server.refresh", "graph.clone", "routing.new_router", "broadcast.new_plan",
		"graph.flatten", "cluster.elect", "ncr.select", "gateway.select", "khop.build", "khop.verify",
		"codec.encode", "codec.decode"} {
		put(n+"_ms", "ms", median(readOnly[n]))
	}
	for _, n := range []string{"mobility.apply", "routing.route", "broadcast.query", "wal.append", "wal.fsync"} {
		put(n+"_ms", "ms", median(byName[n]))
	}
	put("codec.append_events_us", "us", 1000*median(byName["codec.append_events"]))
	put("mobility.reclustered_per_batch", "count", mean(c.reclustered))
	saved := 0.0
	if c.gwRuns+c.gwSaved > 0 {
		saved = float64(c.gwSaved) / float64(c.gwRuns+c.gwSaved)
	}
	put("mobility.gateway_saved_ratio", "ratio", saved)
	put("routing.route_hops_mean", "hops", mean(c.hops))
	put("routing.stretch_mean", "ratio", mean(c.stretch))
	put("broadcast.forwarders", "count", float64(c.forwarders))
	put("broadcast.tx_ratio", "ratio", mean(c.txRatio))
	put("codec.snapshot_bytes", "bytes", float64(c.snapshotBytes))
	perEvent := 0.0
	if c.walEvents > 0 {
		perEvent = float64(c.walBytes) / float64(c.walEvents)
	}
	put("wal.bytes_per_event", "bytes", perEvent)
	return m
}

// selfTimes is, per replayed operation, the server span named name
// minus the oracle's layer calls for the same work: the server span's
// siblings under the operation's root span.
func selfTimes(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		self := s.ms()
		for _, c := range spans {
			if c.Op == s.Op && c.Parent == s.Parent && c.ID != s.ID {
				self -= c.ms()
			}
		}
		out = append(out, self)
	}
	return out
}

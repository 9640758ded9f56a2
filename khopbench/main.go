// Command khopbench is the khopd benchmark. It starts khopd as its own
// process with a fresh state dir and -wal-sync always, provisions one
// workload's deployments from generated inputs, drives open-loop reads
// and churn over loopback HTTP with the typed client, checks every
// answer and the final snapshots against a library oracle, and prints
// the end-to-end metrics. With -trace 1 it then replays the start of
// the run sequentially against an in-process server and the oracle,
// timing each layer's public calls, and prints the per-layer metrics.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash khopbench/run.sh --workload many_small --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See khopbench/README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of the result line, in BENCHMARK.json's
// order; with -trace 1 the per-layer metrics join them.
var endToEnd = []string{"setup_s", "route_p50_ms", "broadcast_p50_ms", "churn_p50_ms", "peak_rss_mb"}

// printedOnly are percentiles printed with their sample counts but not
// in the result line; read_capacity_qps and error_ratio are printed
// too. See README.md for why none of them is gated.
var printedOnly = []string{"route_p90_ms", "route_p99_ms", "broadcast_p90_ms", "broadcast_p99_ms", "churn_p90_ms"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	khopd    string
	work     string
	out      string
	// smoke selects the seconds-long configuration on small topologies
	// that the smoke test runs.
	smoke bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: many_small, big_churn or big_read")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 30, "load window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: replay the run traced and print the per-layer metrics")
	flag.StringVar(&o.khopd, "khopd", "", "khopd binary to benchmark")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for state dirs and results")
	flag.StringVar(&o.out, "out", "", "directory for summary.json, samples.csv, spans.jsonl and khopd.log (default: under -work)")
	flag.Parse()
	o.trace = trace == 1
	if o.khopd == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "khopbench: need -khopd, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	// The generator allocates per request; collecting less often keeps
	// its pauses out of the schedule.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "khopbench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "khopbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summary is summary.json: the run record, every metric, and the
// evidence behind them.
type summary struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	Host     host              `json:"host"`
	Result   result            `json:"result"`
	EndToEnd map[string]metric `json:"end_to_end"`
	// Printed are the metrics printed besides the result line's: the
	// supported printedOnly percentiles and error_ratio.
	Printed   map[string]metric   `json:"printed"`
	Quantiles map[string]quantile `json:"quantiles"`
	Steps     []stepVerdict       `json:"ladder"`
	Setup     []float64           `json:"setup_s_samples"`
	Failures  map[string]int      `json:"failures_by_reason"`
	Mismatch  []string            `json:"output_mismatches,omitempty"`
	Oracle    string              `json:"oracle_check"`
	Layers    map[string]metric   `json:"per_layer,omitempty"`
	Replay    string              `json:"replay_check,omitempty"`
}

// stepVerdict is one ladder step's capacity check.
type stepVerdict struct {
	Rate    float64  `json:"rate_qps"`
	Reads   int      `json:"reads"`
	P99ms   quantile `json:"read_p99_ms"`
	Failed  int      `json:"failed"`
	Backlog int      `json:"backlog_at_end"`
	MaxBack int      `json:"backlog_allowed"`
	Pass    bool     `json:"pass"`
}

func run(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.smoke {
		w = w.smoke()
	}
	p, err := newPlan(w, o.seed, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(filepath.Join(o.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.work, "tmp"), w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	out := o.out
	if out == "" {
		out = defaultOutDir(o.work, w.Name, o.seed, o.trace)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	stateDir := filepath.Join(tmp, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	proc, err := startKhopd(o.khopd, stateDir, filepath.Join(out, "khopd.log"))
	if err != nil {
		return nil, err
	}
	defer proc.stop()
	conns := runtime.NumCPU()
	cl := client.New(proc.Addr, client.WithHTTPClient(&http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
	}}))

	setup, err := provision(ctx, cl, p)
	if err != nil {
		return nil, err
	}
	gen := &loadgen{cl: cl, plan: p, conns: conns, drain: max(20*time.Second, 2*w.Limit)}
	steal0, total0 := cpuJiffies()
	gen.run(ctx)
	steal1, total1 := cpuJiffies()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rawMetrics, err := cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping khopd: %w", err)
	}
	scr, err := parseScrape(rawMetrics)
	if err != nil {
		return nil, fmt.Errorf("parsing the khopd scrape: %w", err)
	}
	rss, err := proc.peakRSSMB()
	if err != nil {
		return nil, err
	}
	sum := summary{Workload: w.Name, Why: w.Why, Host: hostRecord(o.seed, stateDir), Setup: setup, Oracle: "ok"}
	sum.Host.KhopdFlags = proc.Flags
	sum.Host.KhopdNice = khopdNice
	sum.Host.Connections = conns
	sum.Host.LoadWindowS = p.window.Seconds()
	sum.Host.LatencyLimit = ms(w.Limit)
	if total1 > total0 {
		sum.Host.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	res := &result{Attempted: len(p.ops)}
	res.Failed, res.Correct, sum.Failures, sum.Mismatch = tally(gen.out)
	if err := checkFinal(ctx, p, gen.out, cl.Snapshot); err != nil {
		res.Correct = false
		sum.Oracle = err.Error()
	}
	proc.stop()

	q := latencies(p, gen.out)
	sum.Quantiles = q
	sum.Steps = ladder(p, gen.out, conns)
	capacity := 0.0
	for _, s := range sum.Steps {
		if !s.Pass {
			break
		}
		capacity = s.Rate
	}
	e2e := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"peak_rss_mb": {rss, "MB"},
	}
	for _, name := range []string{"route_p50_ms", "broadcast_p50_ms", "churn_p50_ms"} {
		if !q[name].OK {
			return nil, fmt.Errorf("%s: %v", name, q[name])
		}
		e2e[name] = metric{q[name].Value, "ms"}
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d ops (%d failed), outputs correct: %v; host CPU steal during load %.1f%%\n",
		w.Name, o.seed, res.Attempted, res.Failed, res.Correct, sum.Host.StealPct)
	for _, name := range endToEnd {
		line := fmt.Sprintf("%-22s %12.4f %s", name, e2e[name].Value, e2e[name].Unit)
		if qq, ok := q[name]; ok {
			line += fmt.Sprintf("  (n=%d)", qq.N)
		}
		fmt.Fprintln(stdout, line)
	}
	sum.Printed = map[string]metric{
		"error_ratio":       {float64(res.Failed) / float64(res.Attempted), "ratio"},
		"read_capacity_qps": {capacity, "1/s"},
	}
	for _, name := range printedOnly {
		fmt.Fprintf(stdout, "%-22s %s ms\n", name, q[name])
		if q[name].OK {
			sum.Printed[name] = metric{q[name].Value, "ms"}
		}
	}
	fmt.Fprintf(stdout, "%-22s %12.6f ratio  (%d of %d)\n", "error_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(stdout, "%-22s %12.0f 1/s\n", "read_capacity_qps", capacity)
	for _, s := range sum.Steps {
		fmt.Fprintf(stdout, "ladder %6.0f/s: read p99 %s ms, %d failed, backlog %d (<= %d): pass %v\n", s.Rate, s.P99ms, s.Failed, s.Backlog, s.MaxBack, s.Pass)
	}
	if sum.Oracle != "ok" {
		fmt.Fprintln(stdout, "oracle check failed:", sum.Oracle)
	}

	sum.EndToEnd = e2e
	if !o.trace {
		res.Metrics = e2e
	} else {
		// The replay holds every deployment twice (server and oracle);
		// collect at the default pace so its heap stays small.
		debug.SetGCPercent(100)
		layers, spans, err := tracedReplay(ctx, p, gen.out, tmp)
		if err != nil {
			res.Correct = false
			sum.Replay = err.Error()
			fmt.Fprintln(stdout, "replay failed:", err)
			return nil, err
		}
		sum.Replay = "ok"
		layers["loadgen.lag_p99_ms"] = metric{q["lag_p99_ms"].Value, "ms"}
		layers["loadgen.max_outstanding"] = metric{float64(gen.maxOut.Load()), "count"}
		layers["khopd.apply_p50_ms"] = metric{scr.ApplyP50ms, "ms"}
		layers["khopd.events_applied"] = metric{scr.EventsApplied, "count"}
		layers["khopd.http_5xx"] = metric{scr.HTTP5xx, "count"}
		names := make([]string, 0, len(layers))
		for n := range layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%-34s %14.4f %s\n", n, layers[n].Value, layers[n].Unit)
		}
		if err := writeSpans(filepath.Join(out, "spans.jsonl"), spans); err != nil {
			return nil, err
		}
		sum.Layers = layers
		// A traced run reports its served run's end-to-end metrics too.
		res.Metrics = make(map[string]metric, len(layers)+len(e2e))
		maps.Copy(res.Metrics, layers)
		maps.Copy(res.Metrics, e2e)
	}
	sum.Result = *res
	if err := writeJSON(filepath.Join(out, "summary.json"), sum); err != nil {
		return nil, err
	}
	if err := writeSamples(filepath.Join(out, "samples.csv"), p, gen.out, gen.backlog); err != nil {
		return nil, err
	}
	if err := writeOps(filepath.Join(out, "ops.csv"), p, gen.out); err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, "results in", out)
	return res, nil
}

// provision creates (or restores) the read deployments SetupReps times,
// each time until one read per deployment succeeds, and returns the
// timings. Earlier repetitions are deleted; the last one, under the
// plan's ids, takes the load. big_read's churn probe is created last,
// untimed.
func provision(ctx context.Context, cl *client.Client, p *plan) ([]float64, error) {
	var times []float64
	for r := 0; r < p.spec.SetupReps; r++ {
		suffix := ""
		if r < p.spec.SetupReps-1 {
			suffix = fmt.Sprintf("-setup%d", r)
		}
		// Collect the generator's own garbage first, so no collection of
		// it lands inside a timed repetition.
		runtime.GC()
		start := time.Now()
		for _, dep := range p.readDeps {
			var err error
			if blob := p.blobs[dep]; blob != nil {
				_, err = cl.Restore(ctx, dep+suffix, blob)
			} else {
				t := p.topo[dep]
				_, err = cl.Create(ctx, api.CreateRequest{ID: dep + suffix, N: t.n, Edges: t.edges, K: clusterK, Algorithm: clusterAlgo})
			}
			if err != nil {
				return nil, fmt.Errorf("provisioning %s: %w", dep+suffix, err)
			}
		}
		for _, dep := range p.readDeps {
			t := p.topo[dep]
			resp, err := cl.Route(ctx, dep+suffix, 0, t.n-1)
			if err == nil {
				err = checkRoute(t, 0, t.n-1, resp)
			}
			if err != nil {
				return nil, fmt.Errorf("first read on %s: %w", dep+suffix, err)
			}
		}
		times = append(times, time.Since(start).Seconds())
		if suffix != "" {
			for _, dep := range p.readDeps {
				if err := cl.Delete(ctx, dep+suffix); err != nil {
					return nil, err
				}
			}
		}
	}
	if p.spec.ChurnProbe {
		t := p.topo[probeID]
		if _, err := cl.Create(ctx, api.CreateRequest{ID: probeID, N: t.n, Edges: t.edges, K: clusterK, Algorithm: clusterAlgo}); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// latencies computes the exact percentiles of the served run: reads and
// churn batches of the nominal step, and the generator's dispatch lag
// over the whole run.
func latencies(p *plan, outs []outcome) map[string]quantile {
	var route, bc, churn, lag []float64
	for i := range p.ops {
		o, out := &p.ops[i], &outs[i]
		lat := ms(latency(o, out, p.spec.Limit))
		lag = append(lag, ms(out.Lag))
		switch {
		case o.Step != 0:
		case o.Kind == opChurn:
			churn = append(churn, lat)
		case o.Kind == opRoute:
			route = append(route, lat)
		default:
			bc = append(bc, lat)
		}
	}
	return map[string]quantile{
		"route_p50_ms":     percentile(route, 50),
		"route_p90_ms":     percentile(route, 90),
		"route_p99_ms":     percentile(route, 99),
		"broadcast_p50_ms": percentile(bc, 50),
		"broadcast_p90_ms": percentile(bc, 90),
		"broadcast_p99_ms": percentile(bc, 99),
		"churn_p50_ms":     percentile(churn, 50),
		"churn_p90_ms":     percentile(churn, 90),
		"lag_p99_ms":       percentile(lag, 99),
	}
}

// ladder checks each read-rate step: read p99 within the limit, no
// failed read, and a backlog at the step's end no larger than what the
// limit allows at that rate.
func ladder(p *plan, outs []outcome, conns int) []stepVerdict {
	steps := make([]stepVerdict, 3)
	lats := make([][]float64, 3)
	for s := range steps {
		steps[s].Rate = p.spec.Ladder[s]
		steps[s].MaxBack = int(p.spec.Ladder[s]*p.spec.Limit.Seconds()) + conns
		for i := range p.ops {
			o, out := &p.ops[i], &outs[i]
			if o.Kind == opChurn || o.Step != s {
				continue
			}
			lats[s] = append(lats[s], ms(latency(o, out, p.spec.Limit)))
			if out.Fail != "" {
				steps[s].Failed++
			}
			if out.Fail != "" || out.Done > p.stepEnds[s] {
				steps[s].Backlog++
			}
		}
		steps[s].Reads = len(lats[s])
		q := percentile(lats[s], 99)
		steps[s].P99ms = q
		steps[s].Pass = q.OK && q.Value <= ms(p.spec.Limit) && steps[s].Failed == 0 && steps[s].Backlog <= steps[s].MaxBack
	}
	return steps
}

// tally counts the failed ops by reason. Any failed output check makes
// the whole run incorrect, not just the op.
func tally(outs []outcome) (failed int, correct bool, byReason map[string]int, mismatches []string) {
	correct = true
	byReason = make(map[string]int)
	for i := range outs {
		f := outs[i].Fail
		if f == "" {
			continue
		}
		failed++
		if len(f) > 60 {
			f = f[:60]
		}
		byReason[f]++
		if outs[i].Mismatch {
			correct = false
			mismatches = append(mismatches, outs[i].Fail)
		}
	}
	return failed, correct, byReason, mismatches
}

// tracedReplay runs the replay twice on fresh state, traced and
// untraced, and returns the per-layer metrics of the traced pass plus
// trace.overhead_ratio, and the traced pass's spans.
func tracedReplay(ctx context.Context, p *plan, outs []outcome, tmp string) (map[string]metric, []span, error) {
	var traced *replayer
	var wall [2]time.Duration
	for pass := 0; pass < 2; pass++ {
		dir, err := os.MkdirTemp(tmp, "replay-")
		if err != nil {
			return nil, nil, err
		}
		r := &replayer{p: p, outs: outs, dir: dir, tr: &tracer{on: pass == 0, start: time.Now()}}
		start := time.Now()
		err = r.run(ctx)
		wall[pass] = time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, err
		}
		if pass == 0 {
			traced = r
		}
	}
	m := layerMetrics(traced.tr.spans, traced.c, p.readDeps)
	m["trace.overhead_ratio"] = metric{wall[0].Seconds()/wall[1].Seconds() - 1, "ratio"}
	return m, traced.tr.spans, nil
}

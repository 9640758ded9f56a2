package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// perLayer is every per-layer metric and its unit.
var perLayer = map[string]string{
	"server.create_ms": "ms", "server.create.self_ms": "ms",
	"server.restore_ms": "ms", "server.restore.self_ms": "ms",
	"server.events_ms": "ms", "server.events.self_ms": "ms",
	"server.route_ms": "ms", "server.route.self_ms": "ms",
	"server.broadcast_ms": "ms", "server.broadcast.self_ms": "ms",
	"server.refresh_ms": "ms",
	"graph.clone_ms":    "ms", "graph.flatten_ms": "ms",
	"mobility.apply_ms": "ms", "mobility.reclustered_per_batch": "count", "mobility.gateway_saved_ratio": "ratio",
	"cluster.elect_ms": "ms", "ncr.select_ms": "ms", "gateway.select_ms": "ms", "khop.build_ms": "ms", "khop.verify_ms": "ms",
	"routing.new_router_ms": "ms", "routing.route_ms": "ms", "routing.route_hops_mean": "hops", "routing.stretch_mean": "ratio",
	"broadcast.new_plan_ms": "ms", "broadcast.query_ms": "ms", "broadcast.forwarders": "count", "broadcast.tx_ratio": "ratio",
	"codec.append_events_us": "us", "codec.encode_ms": "ms", "codec.decode_ms": "ms", "codec.snapshot_bytes": "bytes",
	"wal.append_ms": "ms", "wal.fsync_ms": "ms", "wal.bytes_per_event": "bytes",
	"loadgen.lag_p99_ms": "ms", "loadgen.max_outstanding": "count",
	"khopd.apply_p50_ms": "ms", "khopd.events_applied": "count", "khopd.http_5xx": "count",
	"trace.overhead_ratio": "ratio",
}

// endToEndUnits is every end-to-end metric of the JSON result.
var endToEndUnits = map[string]string{
	"setup_s": "s", "route_p50_ms": "ms", "broadcast_p50_ms": "ms", "churn_p50_ms": "ms",
	"peak_rss_mb": "MB",
}

// TestSmoke runs every workload's seconds-long configuration against a
// real khopd, traced, and checks that the outputs are correct and that
// every end-to-end and per-layer metric is emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts khopd and runs each workload for seconds")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "khopd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/khopd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building khopd: %v\n%s", err, out)
	}
	if len(endToEndUnits) != len(endToEnd) {
		t.Fatalf("endToEnd lists %d metrics, the test knows %d", len(endToEnd), len(endToEndUnits))
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := filepath.Join(dir, w.Name)
			res, err := run(context.Background(), options{
				workload: w.Name, seed: 1, seconds: 6, trace: true, smoke: true,
				khopd: bin, work: dir, out: out,
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			all := maps.Clone(perLayer)
			maps.Copy(all, endToEndUnits)
			checkUnits(t, "result-line", res.Metrics, all)
			raw, err := os.ReadFile(filepath.Join(out, "summary.json"))
			if err != nil {
				t.Fatal(err)
			}
			var sum summary
			if err := json.Unmarshal(raw, &sum); err != nil {
				t.Fatal(err)
			}
			checkUnits(t, "end-to-end", sum.EndToEnd, endToEndUnits)
			checkUnits(t, "printed", sum.Printed, map[string]string{
				"route_p90_ms": "ms", "route_p99_ms": "ms", "broadcast_p90_ms": "ms", "broadcast_p99_ms": "ms",
				"churn_p90_ms": "ms", "error_ratio": "ratio", "read_capacity_qps": "1/s",
			})
			if sum.Oracle != "ok" || sum.Replay != "ok" {
				t.Errorf("oracle check %q, replay check %q", sum.Oracle, sum.Replay)
			}
			for _, f := range []string{"samples.csv", "spans.jsonl", "khopd.log"} {
				if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
					t.Errorf("%s missing or empty", f)
				}
			}
		})
	}
}

func checkUnits(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s metric %s not emitted", kind, name)
		} else if m.Unit != unit {
			t.Errorf("%s metric %s has unit %q, want %q", kind, name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d %s metrics emitted, want %d", len(got), kind, len(want))
	}
}

// BENCHMARK.json names exactly the metrics the benchmark emits, with
// the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] || m.Unit != endToEndUnits[m.Name] {
			t.Errorf("end_to_end[%d] = %s (%s), want %s (%s)", i, m.Name, m.Unit, endToEnd[i], endToEndUnits[endToEnd[i]])
		}
	}
	got := make(map[string]metric)
	for _, m := range b.PerLayer {
		got[m.Name] = metric{Unit: m.Unit}
	}
	checkUnits(t, "BENCHMARK.json per_layer", got, perLayer)
}

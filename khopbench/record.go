package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the run record: where and how a result was produced (the
// host-baseline method of docs/benchmarks.md).
type host struct {
	CPUModel     string   `json:"cpu_model"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	MemTotalMB   int      `json:"mem_total_mb"`
	Kernel       string   `json:"kernel"`
	Arch         string   `json:"arch"`
	GoVersion    string   `json:"go_version"`
	GitCommit    string   `json:"git_commit"`
	Command      []string `json:"command"`
	Seed         int64    `json:"seed"`
	KhopdFlags   []string `json:"khopd_flags"`
	KhopdNice    int      `json:"khopd_nice"`
	WALSync      string   `json:"wal_sync"`
	StateDirFS   string   `json:"state_dir_fs"`
	Connections  int      `json:"connections"`
	RecordedUTC  string   `json:"recorded_utc"`
	LoadWindowS  float64  `json:"load_window_s"`
	LatencyLimit float64  `json:"read_p99_limit_ms"`
	// StealPct is the share of CPU time the hypervisor gave to other
	// guests during the load window; runs with a high share are slow
	// for reasons outside the tree.
	StealPct float64 `json:"steal_pct"`
}

func hostRecord(seed int64, stateDir string) host {
	h := host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Arch:        runtime.GOARCH,
		GoVersion:   runtime.Version(),
		Command:     os.Args,
		Seed:        seed,
		WALSync:     "always",
		RecordedUTC: time.Now().UTC().Format(time.RFC3339),
		CPUModel:    procField("/proc/cpuinfo", "model name"),
		GitCommit:   "unknown (not a git checkout)",
		StateDirFS:  fsType(stateDir),
	}
	if kb, err := strconv.Atoi(strings.Fields(procField("/proc/meminfo", "MemTotal") + " 0")[0]); err == nil {
		h.MemTotalMB = kb / 1024
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// cpuJiffies returns the steal and total jiffies of the aggregate cpu
// line of /proc/stat (zeros where it cannot be read).
func cpuJiffies() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procField returns the value of the first "key: value" line of a
// /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeSamples writes samples.csv: one row per second of the load
// window, aggregating the ops due in that second.
func writeSamples(path string, p *plan, outs []outcome, backlog []backlogSample) error {
	secs := int(p.window / time.Second)
	if p.window%time.Second != 0 {
		secs++
	}
	type row struct {
		reads, churn, failed int
		readMax, churnMax    float64
		lagMax               float64
		outstanding          int64
		readLat              []float64
	}
	rows := make([]row, secs)
	for i := range p.ops {
		o, out := &p.ops[i], &outs[i]
		s := int(o.Due / time.Second)
		if s >= secs {
			s = secs - 1
		}
		r := &rows[s]
		lat := ms(latency(o, out, p.spec.Limit))
		if o.Kind == opChurn {
			r.churn++
			r.churnMax = max(r.churnMax, lat)
		} else {
			r.reads++
			r.readMax = max(r.readMax, lat)
			r.readLat = append(r.readLat, lat)
		}
		if out.Fail != "" {
			r.failed++
		}
		r.lagMax = max(r.lagMax, ms(out.Lag))
	}
	for _, b := range backlog {
		s := int(b.At / time.Second)
		if s < secs {
			rows[s].outstanding = max(rows[s].outstanding, b.Outstanding)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	w.Write([]string{"second", "step", "reads_due", "churn_due", "failed", "read_p50_ms", "read_max_ms", "churn_max_ms", "lag_max_ms", "outstanding_max"})
	f3 := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for s, r := range rows {
		w.Write([]string{strconv.Itoa(s), strconv.Itoa(p.stepOf(time.Duration(s) * time.Second)),
			strconv.Itoa(r.reads), strconv.Itoa(r.churn), strconv.Itoa(r.failed),
			f3(median(r.readLat)), f3(r.readMax), f3(r.churnMax), f3(r.lagMax), strconv.FormatInt(r.outstanding, 10)})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// defaultOutDir is where a run's files go unless -out says otherwise.
func defaultOutDir(work, name string, seed int64, trace bool) string {
	return filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-trace%v-%d", name, seed, trace, time.Now().UnixNano()))
}

// writeOps writes ops.csv: every op of the schedule with its due, send
// and completion offsets, its latency from due time, and its failure.
func writeOps(path string, p *plan, outs []outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	w.Write([]string{"index", "kind", "step", "deployment", "due_ms", "lag_ms", "sent_ms", "done_ms", "latency_ms", "fail"})
	f3 := func(d time.Duration) string { return strconv.FormatFloat(ms(d), 'f', 3, 64) }
	for i := range p.ops {
		o, out := &p.ops[i], &outs[i]
		w.Write([]string{strconv.Itoa(i), o.Kind.String(), strconv.Itoa(o.Step), o.Dep,
			f3(o.Due), f3(out.Lag), f3(out.Sent), f3(out.Done), f3(latency(o, out, p.spec.Limit)), out.Fail})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// khopdProc is a khopd child process listening on a loopback port.
type khopdProc struct {
	cmd   *exec.Cmd
	Addr  string // base URL, e.g. http://127.0.0.1:40123
	Flags []string
	logf  *os.File
	exit  chan error
	once  sync.Once
}

var servingRE = regexp.MustCompile(`serving on (\S+)`)

// khopdNice is the niceness khopd runs at (see startKhopd).
const khopdNice = 5

// startKhopd starts bin with a fresh state dir and waits until it
// listens. Its stderr goes to logPath.
func startKhopd(bin, stateDir, logPath string) (*khopdProc, error) {
	flags := []string{"-addr", "127.0.0.1:0", "-state-dir", stateDir, "-wal-sync", "always"}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// khopd runs niced so that, when it and the generator both want
	// a CPU, the generator dispatches on time: requests are due at fixed
	// times, and a starved generator would charge its own lateness to
	// the server.
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(khopdNice), bin}, flags...)...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting khopd: %w", err)
	}
	p := &khopdProc{cmd: cmd, Flags: flags, logf: logf, exit: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := servingRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addr <- m[1]
			}
		}
		io.Copy(io.Discard, stderr)
		p.exit <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		p.Addr = "http://" + a
		return p, nil
	case err := <-p.exit:
		logf.Close()
		return nil, fmt.Errorf("khopd exited before listening: %w (log: %s)", err, logPath)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("khopd did not listen within 30s (log: %s)", logPath)
	}
}

// stop interrupts khopd, lets it drain and checkpoint, and kills it if
// that takes too long. It returns once the process has exited.
func (p *khopdProc) stop() {
	p.once.Do(func() {
		p.cmd.Process.Signal(os.Interrupt)
		select {
		case <-p.exit:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.exit
		}
		p.logf.Close()
	})
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (p *khopdProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// scrape is the cross-check khopd's own metrics give of a served run.
type scrape struct {
	ApplyP50ms    float64
	EventsApplied float64
	HTTP5xx       float64
}

func parseScrape(raw []byte) (scrape, error) {
	sc, err := telemetry.ParseText(bytes.NewReader(raw))
	if err != nil {
		return scrape{}, err
	}
	out := scrape{
		EventsApplied: sc.SumAcross("khopd_events_applied_total"),
		HTTP5xx:       sc.SumAcross("khopd_http_5xx_total"),
	}
	// Sum the per-deployment apply histograms bucket by bucket, then
	// take the upper bound of the bucket holding the median.
	cum := make(map[float64]float64)
	for _, s := range sc.Samples {
		if s.Name != "khopd_apply_seconds_bucket" {
			continue
		}
		le := math.Inf(1)
		if s.Labels["le"] != "+Inf" {
			if le, err = strconv.ParseFloat(s.Labels["le"], 64); err != nil {
				return scrape{}, fmt.Errorf("bucket bound %q: %w", s.Labels["le"], err)
			}
		}
		cum[le] += s.Value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if n := len(bounds); n > 0 && cum[bounds[n-1]] > 0 {
		total := cum[bounds[n-1]]
		for _, le := range bounds {
			if cum[le] >= total/2 {
				out.ApplyP50ms = le * 1000
				break
			}
		}
	}
	return out, nil
}

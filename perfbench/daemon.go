package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running hinriskd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon launches hinriskd on the fixture file with the benchmark's
// daemon flags and returns once /v1/healthz answers 200 - the moment the
// first request can be sent. Daemon logs go to logPath. A non-nil cpus
// confines the daemon to that CPU set from its first instruction, so its
// GOMAXPROCS is the set's size.
func startDaemon(bin, graph, logPath string, cpus *cpuMask) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{"-graph", graph, "-addr", "127.0.0.1:0"}, daemonFlags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Should the benchmark die without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := cmd.Start
	if cpus != nil {
		start = func() error { return startPinned(*cpus, cmd.Start) }
	}
	if err := start(); err != nil {
		return nil, fmt.Errorf("start hinriskd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, stdout) //hin:allow errdrop -- draining so the daemon never blocks on a full pipe
		cmd.Wait()                  //hin:allow errdrop -- the exit status is irrelevant once the benchmark stops the daemon
		close(d.done)
	}()
	select {
	case line, ok := <-lines:
		base, found := strings.CutPrefix(line, "listening ")
		if !ok || !found {
			d.stop()
			return nil, fmt.Errorf("hinriskd did not announce its address (see %s)", logPath)
		}
		d.base = base
	case <-time.After(2 * time.Minute):
		d.stop()
		return nil, fmt.Errorf("hinriskd did not start within 2m")
	}
	if err := d.waitReady(2 * time.Minute); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //hin:allow errdrop -- drained only so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("hinriskd exited before becoming ready")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hinriskd not ready after %v", timeout)
		}
	}
}

// peakRSSMB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// cpu is the CPU time the daemon has used so far.
func (d *daemon) cpu() (time.Duration, error) { return processCPU(d.cmd.Process.Pid) }

// stop sends SIGTERM (graceful drain), waits, and kills after 20s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //hin:allow errdrop -- an already-exited daemon is what stop wants
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //hin:allow errdrop -- last resort; Wait below reaps either way
		<-d.done
	}
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape is one /metrics read: every series (name plus label block) with
// its value.
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after-minus-before for one series.
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// histP99 estimates the p99 of a histogram family from the bucket deltas
// between two scrapes: the upper bound of the bucket holding the 99th
// percentile observation (the registry's buckets are powers of two, so
// this is within 2x). Returns 0 when the family saw no observations.
func histP99(before, after scrape, family string) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range after {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = f
		}
		bs = append(bs, bucket{bound, v - before[k]})
	}
	total := 0.0
	for _, b := range bs {
		if math.IsInf(b.le, 1) {
			total = b.cum
		}
	}
	if total == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, b := range bs {
		if b.cum >= 0.99*total && b.le < best {
			best = b.le
		}
	}
	return best
}

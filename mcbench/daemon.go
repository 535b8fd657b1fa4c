package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one running mcservd process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	err  error
	log  *os.File
}

// cluster is the set of daemons one workload runs against: a single
// node, or a coordinator fronting two workers. front is the daemon the
// client talks to.
type cluster struct {
	front   *daemon
	workers []*daemon
	all     []*daemon
}

const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 10 * time.Second
	// readyPoll is how often start-up checks for the port file and
	// health: fine enough not to quantize a set-up of a few milliseconds.
	readyPoll = 200 * time.Microsecond
)

// startDaemon launches mcservd with a port file in dir and waits until
// the bound address is known.
func startDaemon(ctx context.Context, bin, dir, name string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, "port")
	logFile, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", "127.0.0.1:0", "-portfile", portFile)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed before it can drain it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{}), log: logFile}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(readyTimeout)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			logFile.Close()
			return nil, fmt.Errorf("%s exited during start-up: %v (log: %s)", name, d.err, logFile.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s wrote no port file within %v", name, readyTimeout)
		}
	}
}

// stop drains the daemon with SIGTERM, falls back to SIGKILL, and waits
// until the process has exited.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// peakRSSKiB reads the process's resident-set high-water mark.
func (d *daemon) peakRSSKiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (c *cluster) stop() {
	for _, d := range c.all {
		d.stop()
	}
}

// peakRSSMB sums the daemons' resident-set high-water marks.
func (c *cluster) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range c.all {
		kb, err := d.peakRSSKiB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		total += kb
	}
	return total / 1024, nil
}

// startCluster brings up a workload's daemons in dir and returns once
// every /v1/healthz reports ok (and, for a fleet, the coordinator sees
// both workers usable), with the elapsed set-up time. A single node
// runs with a spool, so the write-ahead journal and the result spool
// are on. A fleet's daemons (the traced run's fleet probe) keep results
// in memory: with a spool on each of the three, the journal and spool
// fsyncs took some 60% of a 400-trial campaign's time through the
// fleet, leaving fleet dispatch and merge little of it.
func startCluster(ctx context.Context, bin, dir string, fleet bool) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{}
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	spawn := func(name string, args ...string) (*daemon, error) {
		sub := filepath.Join(dir, name)
		if !fleet {
			args = append(args, "-spool", filepath.Join(sub, "spool"))
		}
		d, err := startDaemon(ctx, bin, sub, name, args...)
		if err == nil {
			c.all = append(c.all, d)
		}
		return d, err
	}
	if !fleet {
		d, err := spawn("node")
		if err != nil {
			return fail(err)
		}
		c.front = d
	} else {
		var urls []string
		for i := 0; i < 2; i++ {
			d, err := spawn(fmt.Sprintf("worker%d", i), "-worker")
			if err != nil {
				return fail(err)
			}
			c.workers = append(c.workers, d)
			urls = append(urls, d.base)
		}
		d, err := spawn("coordinator", "-coordinator", "-workers", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		c.front = d
	}
	deadline := time.Now().Add(readyTimeout)
	for _, d := range c.all {
		for !healthy(ctx, d.base) {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("%s not healthy within %v", d.name, readyTimeout))
			}
			time.Sleep(readyPoll)
		}
	}
	if fleet {
		for {
			var st struct {
				WorkersUsable int `json:"workers_usable"`
			}
			if err := api(c.front.base).GetJSON(ctx, "/v1/stats", &st); err == nil && st.WorkersUsable == len(c.workers) {
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("coordinator did not see %d usable workers within %v", len(c.workers), readyTimeout))
			}
			time.Sleep(readyPoll)
		}
	}
	return c, time.Since(start), nil
}

// probeClient carries every read of the daemons' state: health, stats,
// traces and metrics. A trace render takes up to half a second.
var probeClient = &http.Client{Timeout: time.Minute}

// api is a client of one daemon's read endpoints.
func api(base string) *serve.Client {
	return &serve.Client{BaseURL: base, HTTP: probeClient}
}

func healthy(ctx context.Context, base string) bool {
	status, err := api(base).Healthz(ctx)
	return err == nil && status == "ok"
}

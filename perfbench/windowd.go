package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one windowd subprocess, driven only through its public
// surfaces: the announce lines on stderr, the HTTP and TCP listeners,
// SIGTERM, the exit status and stdout.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string
	ready    time.Duration // spawn until both listeners were announced
	procs    int           // GOMAXPROCS windowd started with
	stdout   bytes.Buffer
	stderr   *announceWatcher
	exited   chan error
	client   *http.Client
}

// announceWatcher collects windowd's stderr and reports the two listener
// addresses as soon as both announce lines have been written.
type announceWatcher struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	httpAddr string
	tcpAddr  string
	start    time.Time
	readyAt  time.Duration
	ready    chan struct{}
}

func (w *announceWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.readyAt != 0 {
		return len(p), nil
	}
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "windowd: listening on "); ok {
			w.httpAddr, _, _ = strings.Cut(rest, " ")
		}
		if rest, ok := strings.CutPrefix(line, "windowd: tcp ingest on "); ok {
			w.tcpAddr = strings.TrimSpace(rest)
		}
	}
	if w.httpAddr != "" && w.tcpAddr != "" {
		w.readyAt = time.Since(w.start)
		close(w.ready)
	}
	return len(p), nil
}

func (w *announceWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// daemonArgs is the operating point a workload runs windowd at.
func daemonArgs(p point) []string {
	return []string{
		"-listen", "127.0.0.1:0", "-listen-tcp", "127.0.0.1:0",
		"-load", strconv.FormatFloat(p.load, 'g', -1, 64),
		"-km", strconv.FormatFloat(p.km, 'g', -1, 64),
		"-m", strconv.FormatFloat(p.m, 'g', -1, 64),
	}
}

// startDaemon spawns windowd and waits until both listeners are
// announced.
func startDaemon(bin string, args []string) (*daemon, error) {
	procs, err := childProcs()
	if err != nil {
		return nil, err
	}
	w := &announceWatcher{ready: make(chan struct{})}
	d := &daemon{cmd: exec.Command(bin, args...), stderr: w, procs: procs}
	d.cmd.Stdout = &d.stdout
	d.cmd.Stderr = w
	// Should the benchmark die without stopping it, windowd is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	w.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting windowd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case <-w.ready:
	case err := <-exited:
		return nil, fmt.Errorf("windowd exited before announcing its listeners (%v): %s", err, w.String())
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("windowd did not announce its listeners within 10s: %s", w.String())
	}
	w.mu.Lock()
	d.httpAddr, d.tcpAddr, d.ready = w.httpAddr, w.tcpAddr, w.readyAt
	w.mu.Unlock()
	d.exited = exited
	d.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	// windowd installs its SIGTERM handler after announcing and before
	// serving HTTP, so the first answered /healthz means a SIGTERM will
	// drain it rather than kill it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := d.client.Get("http://" + d.httpAddr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			<-exited
			return nil, fmt.Errorf("windowd /healthz: %v", err)
		}
	}
	return d, nil
}

// exitReport is what the stopped daemon left behind.
type exitReport struct {
	cpu      time.Duration // user + system
	maxRSSMB float64
	ingested int64 // from the "drained (ingested N)" line
}

// stop SIGTERM-drains the daemon and verifies its exit: status 0, the
// conservation line on stdout, and the drained ingest total.
func (d *daemon) stop() (exitReport, error) {
	d.client.CloseIdleConnections()
	var rep exitReport
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return rep, fmt.Errorf("signalling windowd: %w", err)
	}
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return rep, fmt.Errorf("windowd did not exit within 30s of SIGTERM")
	}
	st := d.cmd.ProcessState
	rep.cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rep.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	out := d.stdout.String()
	if err != nil {
		return rep, fmt.Errorf("windowd exit: %v\nstdout:\n%s\nstderr:\n%s", err, out, d.stderr.String())
	}
	if !strings.Contains(out, "conservation invariants verified") {
		return rep, fmt.Errorf("windowd exited 0 without verifying conservation:\n%s", out)
	}
	if _, rest, ok := strings.Cut(out, "drained (ingested "); ok {
		num, _, _ := strings.Cut(rest, ")")
		rep.ingested, err = strconv.ParseInt(num, 10, 64)
	} else {
		err = fmt.Errorf("no drain line")
	}
	if err != nil {
		return rep, fmt.Errorf("windowd stdout has no readable drain total (%v):\n%s", err, out)
	}
	return rep, nil
}

// memStats is the part of windowd's runtime.MemStats (the "memstats"
// expvar on /debug/vars) the layer table uses.
type memStats struct {
	GCCPUFraction float64
	NumGC         uint32
	Mallocs       uint64
	TotalAlloc    uint64
}

// memstats reads windowd's runtime counters from /debug/vars, with the
// daemon's age at the read.
func (d *daemon) memstats() (memStats, time.Duration, error) {
	var v struct {
		Mem memStats `json:"memstats"`
	}
	resp, err := d.client.Get("http://" + d.httpAddr + "/debug/vars")
	if err != nil {
		return v.Mem, 0, err
	}
	defer resp.Body.Close()
	age := time.Since(d.stderr.start)
	if resp.StatusCode != http.StatusOK {
		return v.Mem, 0, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v.Mem, 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Mem, age, nil
}

// scrape is one parsed GET /metrics.
type scrape struct {
	at  time.Time // when the response arrived
	rtt time.Duration
	v   map[string]float64
}

func (s scrape) int(name string) int64 { return int64(s.v[name]) }

// decided is the number of messages with an admit/shed decision.
func (s scrape) decided() int64 {
	return s.int("windowd_transmissions_total") + s.int("windowd_shed_total")
}

// scrape fetches and parses the Prometheus text on /metrics.
func (d *daemon) scrape() (scrape, error) {
	t0 := time.Now()
	resp, err := d.client.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return scrape{}, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	v := make(map[string]float64, 32)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			v[name] = f
		}
	}
	if err := sc.Err(); err != nil {
		return scrape{}, fmt.Errorf("/metrics: %w", err)
	}
	now := time.Now()
	return scrape{at: now, rtt: now.Sub(t0), v: v}, nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"windowctl"
	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
)

// TestMain lets a test re-exec this binary as windowd itself:
// "<test binary> windowd ARGS..." runs main with ARGS.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "windowd" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// windowdProc is a windowd subprocess whose stderr has been read up to
// and including the "listening on" announcement.
type windowdProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bufio.Reader
	stdout bytes.Buffer
}

// startWindowd re-execs the test binary as windowd on an ephemeral
// loopback port and returns as soon as it announces its address.
func startWindowd(t *testing.T, args ...string) *windowdProc {
	t.Helper()
	p := &windowdProc{}
	p.cmd = exec.Command(os.Args[0], append([]string{"windowd", "-listen", "127.0.0.1:0"}, args...)...)
	p.cmd.Stdout = &p.stdout
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })
	p.stderr = bufio.NewReader(pipe)
	line, err := p.stderr.ReadString('\n')
	if err != nil || !strings.Contains(line, "listening on") {
		t.Fatalf("windowd never announced its address: %q, %v", line, err)
	}
	if f := strings.Fields(line); len(f) >= 4 {
		p.addr = f[3]
	}
	return p
}

// stop sends SIGTERM and requires a drain to a clean exit 0 with the
// conservation marker on stdout.
func (p *windowdProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(p.stderr)
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("windowd exited uncleanly after SIGTERM: %v\nstderr: %s\nstdout: %s", err, rest, p.stdout.String())
	}
	if !strings.Contains(p.stdout.String(), "conservation invariants verified") {
		t.Fatalf("missing drain verification marker in:\n%s", p.stdout.String())
	}
}

func testOptions() options {
	return options{
		listen: "127.0.0.1:0", protocol: "controlled",
		tau: 1, m: 10, km: 1, load: 0.9, seed: 7,
		drainTimeout: 5 * time.Second,
	}
}

// scrape pulls the "windowd" collector snapshot and engine status out of
// /debug/vars, the exact path a monitoring agent uses.
func scrape(t *testing.T, base string) (metrics.Snapshot, engineStatus) {
	t.Helper()
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Windowd metrics.Snapshot `json:"windowd"`
		Engine  engineStatus     `json:"windowd_engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	return vars.Windowd, vars.Engine
}

func postNDJSON(t *testing.T, base string, body string) {
	t.Helper()
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/ingest: status %d", resp.StatusCode)
	}
}

// The tentpole's end-to-end contract: start the server, POST arrivals,
// watch transmissions and element-(4) sheds appear in /debug/vars, drain,
// and verify the books balance exactly.
func TestServerEndToEnd(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const batches, perBatch = 5, 300
	for i := 0; i < batches; i++ {
		postNDJSON(t, ts.URL, fmt.Sprintf("{\"count\":%d}\n", perBatch))
	}

	// The pump schedules asynchronously; wait for it to work through the
	// ingested load (scheduled as Poisson(λ′) in virtual time).
	deadline := time.Now().Add(10 * time.Second)
	var snap metrics.Snapshot
	for {
		snap, _ = scrape(t, ts.URL)
		if snap.Transmissions > 0 && snap.Arrivals == batches*perBatch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump never caught up: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	fin := s.final.Load()
	if fin == nil {
		t.Fatal("no final result")
	}
	if fin.err != nil {
		t.Fatalf("drain failed conservation: %v", fin.err)
	}

	snap = s.shared.Snapshot()
	if snap.Arrivals != batches*perBatch {
		t.Errorf("arrivals = %d, want %d", snap.Arrivals, batches*perBatch)
	}
	resident := int64(fin.rep.EndBacklog)
	if snap.Transmissions+snap.Discards+resident != snap.Arrivals {
		t.Errorf("conservation: tx %d + shed %d + resident %d != arrivals %d",
			snap.Transmissions, snap.Discards, resident, snap.Arrivals)
	}
	// At K/M = 1 and ρ′ = 0.9 element (4) must be shedding.
	if snap.Discards == 0 {
		t.Error("expected nonzero element-(4) sheds at K/M=1, ρ'=0.9")
	}

	// After drain the ingest surface must refuse work.
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader("{\"count\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest while drained: status %d, want 503", resp.StatusCode)
	}
}

// Runtime retuning: a /config POST swaps engines under load; the shared
// collector keeps accumulating across the swap and the previous engine's
// conservation invariants are verified during the handoff.
func TestServerConfigSwap(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	postNDJSON(t, ts.URL, "{\"count\":400}\n")
	resp, err := http.Post(ts.URL+"/config", "application/json",
		strings.NewReader(`{"km": 4, "load": 0.5, "protocol": "controlled"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/config POST: status %d: %s", resp.StatusCode, body)
	}
	var cfg map[string]any
	if err := json.Unmarshal(body, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg["k"] != 40.0 || cfg["load"] != 0.5 {
		t.Errorf("config did not apply: %v", cfg)
	}

	// The swapped engine must schedule arrivals ingested after the swap.
	// Arrivals may exceed the 800 ingested: backlog carried across the
	// swap is booked again by the incoming engine (see docs/SERVICE.md).
	postNDJSON(t, ts.URL, "{\"count\":400}\n")
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := scrape(t, ts.URL)
		if snap.Arrivals >= 800 && snap.Transmissions > 400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-swap engine stalled: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	s.beginDrain()
	<-s.done
	if fin := s.final.Load(); fin == nil || fin.err != nil {
		t.Fatalf("drain after swap: %+v", fin)
	}

	// Tau is pinned: the histogram bin width cannot change at runtime.
	resp, err = http.Post(ts.URL+"/config", "application/json", strings.NewReader(`{"tau": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("changing tau: status %d, want 400", resp.StatusCode)
	}
}

// barePump builds a pumpState outside newServer so reconfigure/drain can
// be exercised deterministically, without the pump goroutine owning the
// engine or the expvar surface being touched.
func barePump(t *testing.T, o options) (*server, *pumpState) {
	t.Helper()
	srv := &server{shared: metrics.NewShared(o.tau, 256), opts: o}
	st, est, err := o.engine(srv.shared)
	if err != nil {
		t.Fatal(err)
	}
	return srv, &pumpState{s: srv, st: st, o: o, lam: o.lambda(), est: est, rel: rngutil.New(o.seed ^ 0x6a09e667f3bcc909)}
}

// A /config swap under load must not shed the in-engine backlog: every
// message still pending in the outgoing engine is re-injected into the
// incoming one.
func TestReconfigureCarriesBacklog(t *testing.T) {
	o := testOptions()
	_, p := barePump(t, o)
	for i := 0; i < 5; i++ {
		if err := p.st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Injected after the last Step, these 50 are still in the engine
	// (queued) when the swap lands — the backlog a /config POST under
	// load would previously have shed.
	p.st.Inject(50)
	carried := p.st.Backlog()
	if carried != 50 {
		t.Fatalf("setup: backlog = %d, want 50", carried)
	}
	o2 := o
	o2.km, o2.load = 4, 0.5
	m := ctrlMsg{opts: o2, reply: make(chan error, 1)}
	p.reconfigure(m)
	if err := <-m.reply; err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if got := p.st.Backlog(); got != carried {
		t.Errorf("backlog after swap = %d, want the carried %d", got, carried)
	}
	// The carried messages must actually be schedulable by the new engine.
	for i := 0; i < 20000 && p.st.Backlog() > 0; i++ {
		if err := p.st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p.st.Backlog() != 0 {
		t.Errorf("carried backlog never drained: %d left", p.st.Backlog())
	}
	// The outgoing engine's Finish booked its unmaterialized arrivals
	// after the incoming engine was built; the incoming engine's books
	// must still balance.
	if _, err := p.st.Finish(); err != nil {
		t.Errorf("incoming engine after the swap: %v", err)
	}
}

// drain must keep reading the owed ledger: a request that passes
// accept()'s draining check just as beginDrain fires books messages after
// drain has begun, and they must still be scheduled, not stranded.
func TestDrainAbsorbsLateIngest(t *testing.T) {
	o := testOptions()
	srv, p := barePump(t, o)
	srv.owed.Add(37) // booked by an accept() racing beginDrain
	p.drain()
	fin := srv.final.Load()
	if fin == nil || fin.err != nil {
		t.Fatalf("drain: %+v", fin)
	}
	snap := srv.shared.Snapshot()
	if snap.Arrivals != 37 {
		t.Errorf("arrivals = %d, want 37", snap.Arrivals)
	}
	if snap.Transmissions+snap.Discards != 37 {
		t.Errorf("late-booked messages stranded: tx %d + shed %d != 37",
			snap.Transmissions, snap.Discards)
	}
}

// A drain that times out with 10⁹ still owed must finish in bounded
// memory with the books balancing: the owed messages reach Finish as one
// count, booked as censored residents, not as 10⁹ stamps.
func TestDrainTimeoutBoundedMemory(t *testing.T) {
	o := testOptions()
	o.drainTimeout = time.Millisecond
	srv, p := barePump(t, o)
	const owed = 1_000_000_000
	srv.owed.Add(owed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.drain()
	runtime.ReadMemStats(&after)
	fin := srv.final.Load()
	if fin == nil || fin.err != nil {
		t.Fatalf("drain: %+v", fin)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("drain with %d owed allocated %d MB, want < 16 MB", owed, grew>>20)
	}
	snap := srv.shared.Snapshot()
	if resident := int64(fin.rep.EndBacklog); snap.Arrivals != owed || snap.Transmissions+snap.Discards+resident != owed {
		t.Errorf("books: arrivals %d, tx %d + shed %d + resident %d, want %d",
			snap.Arrivals, snap.Transmissions, snap.Discards, resident, owed)
	}
	if st := srv.status.Load(); srv.owed.Load() != 0 || st == nil || st.OwedArrivals != 0 {
		t.Errorf("owed ledger %d after drain, published %+v", srv.owed.Load(), st)
	}
}

// Validation admits constraints up to 1e15; with a tiny tau the bin count
// constraint/tau can exceed int range, and the float→int conversion must
// not slip under the clamp and panic the histogram constructors.
func TestServerExtremeConstraintNoPanic(t *testing.T) {
	o := testOptions()
	o.tau, o.k = 1e-10, 1e14
	if err := o.validate(); err != nil {
		t.Fatalf("options should validate: %v", err)
	}
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if fin := s.final.Load(); fin == nil || fin.err != nil {
		t.Fatalf("empty run should finish cleanly: %+v", fin)
	}
}

// Two counts of MaxInt64 would sum to a negative total, on which the
// pump panics ("negative arrival count").  A count past the wire plane's
// uint32 bound must be a 400, and the process must keep serving and
// drain with balanced books.
func TestIngestCountOverflowRejected(t *testing.T) {
	p := startWindowd(t, "-m", "10", "-km", "1", "-load", "0.9")
	base := "http://" + p.addr
	body := "{\"count\":9223372036854775807}\n{\"count\":9223372036854775807}\n"
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing body: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("/healthz after the overflowing body: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d, want 200", resp.StatusCode)
	}
	p.stop(t)
}

// One /config POST could crash windowd: validate accepted a load of
// 1e300 (or an M of 1e-300), so the pump's Poisson(λ′·elapsed) release
// overflowed int and the next ingested message drove the owed ledger
// negative ("sim: negative arrival count").  Each must be a 400, and the
// process must keep serving and drain with balanced books.
func TestConfigLoadOverflowRejected(t *testing.T) {
	for _, body := range []string{`{"load":1e300}`, `{"m":1e-300}`} {
		t.Run(body, func(t *testing.T) {
			p := startWindowd(t, "-m", "10", "-km", "1", "-load", "0.9")
			base := "http://" + p.addr
			resp, err := http.Post(base+"/config", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("/config %s: status %d, want 400", body, resp.StatusCode)
			}
			postNDJSON(t, base, "{}\n")
			resp, err = http.Get(base + "/healthz")
			if err != nil {
				t.Fatalf("/healthz after /config %s: %v", body, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz: status %d, want 200", resp.StatusCode)
			}
			p.stop(t)
		})
	}
}

// A SIGTERM that lands the moment the address is announced must drain,
// not kill the process with the default signal disposition.
func TestSigtermRightAfterListen(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 50 subprocesses")
	}
	for i := 0; i < 50; i++ {
		startWindowd(t, "-listen-tcp", "127.0.0.1:0").stop(t)
	}
}

// The acceptance criterion's statistical half: the live shed fraction at
// K/M = 1 must match the batch simulator's element-(4) discard rate.  A
// synthetic-mode server is the controlled comparison — its pump draws the
// same Poisson(λ′) law in virtual time the batch engine draws.
func TestServerSyntheticShedMatchesBatch(t *testing.T) {
	o := testOptions()
	o.synthetic = true
	batchSys := windowctl.System{Tau: o.tau, M: o.m, RhoPrime: o.load, K: o.km * o.m * o.tau, Seed: 99}
	batch, err := batchSys.Simulate(windowctl.SimOptions{EndTime: 300000, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	batchShed := float64(batch.LostSender) / float64(batch.Offered)

	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	// Free-run the synthetic pump for a bounded wall time, then drain.
	time.Sleep(300 * time.Millisecond)
	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	fin := s.final.Load()
	if fin == nil || fin.err != nil {
		t.Fatalf("synthetic run failed: %+v", fin)
	}
	snap := s.shared.Snapshot()
	if snap.Arrivals < 10000 {
		t.Skipf("machine too slow for a statistical comparison (only %d arrivals)", snap.Arrivals)
	}
	liveShed := float64(snap.Discards) / float64(snap.Arrivals)
	if batchShed <= 0 || liveShed <= 0 {
		t.Fatalf("expected shedding on both sides: batch=%v live=%v", batchShed, liveShed)
	}
	if diff := math.Abs(batchShed - liveShed); diff > 0.05 {
		t.Errorf("shed fraction diverges: batch %.4f vs live %.4f (|Δ| = %.4f > 0.05)", batchShed, liveShed, diff)
	}
}

// CLI exit-path contract (PR 4 convention): validation errors are usage
// errors, -h is not an error at all.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad tau", []string{"-tau", "-1"}},
		{"bad load", []string{"-load", "0"}},
		{"bad km", []string{"-km", "-2"}},
		{"unknown protocol", []string{"-protocol", "nosuch"}},
		{"positional junk", []string{"extra"}},
		{"bad drain timeout", []string{"-drain-timeout", "-1s"}},
		{"inf k", []string{"-k", "1e300"}},
		{"inf load", []string{"-load", "+Inf"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(tc.args, "-listen", "127.0.0.1:0"), io.Discard, io.Discard)
			if err == nil {
				t.Fatal("run returned nil for invalid flags")
			}
			if !errors.As(err, new(usageError)) && !strings.Contains(err.Error(), "invalid") {
				t.Errorf("want a usage error, got %T: %v", err, err)
			}
		})
	}
	if err := run([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: want flag.ErrHelp, got %v", err)
	}
}

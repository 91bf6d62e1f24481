package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"windowctl/internal/metrics"
	"windowctl/internal/wire"
)

// startTCPServer builds a pump-backed server with a TCP ingest plane on
// loopback plus the HTTP surface, mirroring what -listen-tcp wires up.
func startTCPServer(t *testing.T, o options) (*server, string, string) {
	t.Helper()
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.startTCP(ln)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts.URL, ln.Addr().String()
}

// TestTCPIngestEndToEnd drives the binary plane through the full life of
// the service: framed ingest, pump absorption, the Prometheus and
// /config surfaces, drain, and exact conservation.
func TestTCPIngestEndToEnd(t *testing.T) {
	s, base, tcpAddr := startTCPServer(t, testOptions())

	c, err := wire.Dial(tcpAddr, wire.ClientConfig{CRC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames, per = 200, 5
	for i := 0; i < frames; i++ {
		if err := c.Send([]uint32{per}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The final ack arrives after the server booked every frame.
	if got := s.ingestedTotal(); got != frames*per {
		t.Fatalf("ingested %d, want %d", got, frames*per)
	}

	// Wait for the pump to materialize everything into the engine.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := scrape(t, base)
		if snap.Arrivals == frames*per {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump never absorbed the TCP ingest: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Satellite: the per-transport exposition lines.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"windowd_ingested_total{transport=\"tcp\"} 1000\n",
		"windowd_ingested_total{transport=\"http\"} 0\n",
		"windowd_ingest_frames_total 200\n",
		"windowd_ingest_conns ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /config GET advertises the bound ingest address for autodiscovery.
	resp, err = http.Get(base + "/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfg["tcp_addr"] != tcpAddr {
		t.Errorf("config tcp_addr = %v, want %v", cfg["tcp_addr"], tcpAddr)
	}

	s.beginDrain()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	fin := s.final.Load()
	if fin == nil || fin.err != nil {
		t.Fatalf("drain: %+v", fin)
	}
	snap := s.shared.Snapshot()
	resident := int64(fin.rep.EndBacklog)
	if snap.Transmissions+snap.Discards+resident != snap.Arrivals || snap.Arrivals != frames*per {
		t.Errorf("conservation: tx %d + shed %d + resident %d != arrivals %d (want %d)",
			snap.Transmissions, snap.Discards, resident, snap.Arrivals, frames*per)
	}

	// The plane is closed once draining: a fresh client cannot ingest.
	if c2, err := wire.Dial(tcpAddr, wire.ClientConfig{}); err == nil {
		defer c2.Close()
		var sendErr error
		for i := 0; i < 100 && sendErr == nil; i++ {
			sendErr = c2.Send([]uint32{1})
		}
		if sendErr == nil {
			sendErr = c2.Drain()
		}
		if sendErr == nil {
			t.Error("ingest after drain succeeded")
		}
	}
}

// bareTCPServer is a plane with no pump: nothing is ever released from
// the owed ledger, so the overload bound trips deterministically.
func bareTCPServer(t *testing.T, maxOwed int64) (*server, string) {
	t.Helper()
	srv := &server{
		shared:  metrics.NewShared(1, 256),
		notify:  make(chan struct{}, 1),
		maxOwed: maxOwed,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.startTCP(ln)
	t.Cleanup(func() { srv.tcp.close() })
	return srv, ln.Addr().String()
}

// TestTCPOverloadShed: past -tcp-max-owed the server answers with an
// overloaded frame and does NOT absorb the shed frame; the client
// surfaces wire.ErrOverloaded with the absorbed prefix acknowledged.
func TestTCPOverloadShed(t *testing.T) {
	srv, addr := bareTCPServer(t, 10)
	c, err := wire.Dial(addr, wire.ClientConfig{Credit: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var sendErr error
	for i := 0; i < 200 && sendErr == nil; i++ {
		sendErr = c.Send([]uint32{100})
	}
	if sendErr == nil {
		sendErr = c.Drain()
	}
	if !errors.Is(sendErr, wire.ErrOverloaded) {
		t.Fatalf("got %v, want wire.ErrOverloaded", sendErr)
	}
	if c.Acked() != 1 {
		t.Errorf("acked %d frames, want the 1 absorbed before the bound tripped", c.Acked())
	}
	if got := srv.ingestedTotal(); got != 100 {
		t.Errorf("ingested %d, want 100 (shed frames must not be absorbed)", got)
	}
}

// TestTCPDrainAbsorbsInflight: a drain racing a live sender must book
// every frame the server acknowledged and balance the books exactly —
// absorbed-then-verified, like the HTTP 202 path.
func TestTCPDrainAbsorbsInflight(t *testing.T) {
	s, _, tcpAddr := startTCPServer(t, testOptions())
	c, err := wire.Dial(tcpAddr, wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	clientDone := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			err = c.Send([]uint32{3})
		}
		clientDone <- err
	}()

	// Let some frames land, then cut the plane mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for s.ingestedTotal() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames absorbed")
		}
		time.Sleep(time.Millisecond)
	}
	s.beginDrain()
	if err := <-clientDone; err == nil {
		t.Error("sender kept succeeding across the drain cut")
	}
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not complete")
	}
	fin := s.final.Load()
	if fin == nil || fin.err != nil {
		t.Fatalf("drain conservation: %+v", fin)
	}
	snap := s.shared.Snapshot()
	if snap.Arrivals != s.ingestedTotal() {
		t.Errorf("arrivals %d != booked %d: acknowledged frames stranded", snap.Arrivals, s.ingestedTotal())
	}
	resident := int64(fin.rep.EndBacklog)
	if snap.Transmissions+snap.Discards+resident != snap.Arrivals {
		t.Errorf("conservation: tx %d + shed %d + resident %d != arrivals %d",
			snap.Transmissions, snap.Discards, resident, snap.Arrivals)
	}
}

// TestPprofFlag: the profiling surface mounts only when asked for.
func TestPprofFlag(t *testing.T) {
	get := func(pprof bool) int {
		o := testOptions()
		o.pprof = pprof
		s, err := newServer(o)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.beginDrain(); <-s.done }()
		ts := httptest.NewServer(s.routes())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(true); code != http.StatusOK {
		t.Errorf("-pprof on: /debug/pprof/ = %d, want 200", code)
	}
	if code := get(false); code != http.StatusNotFound {
		t.Errorf("-pprof off: /debug/pprof/ = %d, want 404", code)
	}
}

// TestHTTPvsTCPSaturation is the acceptance criterion: under identical
// per-operation batching (one count of 64 per NDJSON POST / per TCP
// frame), the binary plane must sustain at least 5× the HTTP-path
// message rate over loopback, with both servers draining to zero owed
// backlog and exact conservation afterwards.
func TestHTTPvsTCPSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation comparison skipped in -short")
	}
	const batch = 64
	const totalMsgs = 1 << 21 // ~2.1M messages per leg
	const ops = totalMsgs / batch

	// At ρ′ = 9 each engine step releases nine times as many owed
	// messages as at the default 0.9, so both legs drain in far fewer
	// steps; the ingest rates being compared do not depend on ρ′.
	o := testOptions()
	o.load = 9
	o.drainTimeout = 60 * time.Second

	drainAndVerify := func(s *server, want int64) {
		t.Helper()
		s.beginDrain()
		select {
		case <-s.done:
		case <-time.After(90 * time.Second):
			t.Fatal("drain did not complete")
		}
		fin := s.final.Load()
		if fin == nil || fin.err != nil {
			t.Fatalf("drain: %+v", fin)
		}
		if st := s.status.Load(); st == nil || st.OwedArrivals != 0 {
			t.Fatalf("owed backlog nonzero after drain: %+v", st)
		}
		snap := s.shared.Snapshot()
		if snap.Arrivals != want {
			t.Errorf("arrivals %d, want %d", snap.Arrivals, want)
		}
		resident := int64(fin.rep.EndBacklog)
		if snap.Transmissions+snap.Discards+resident != snap.Arrivals {
			t.Errorf("conservation: tx %d + shed %d + resident %d != arrivals %d",
				snap.Transmissions, snap.Discards, resident, snap.Arrivals)
		}
	}

	// HTTP leg: one keep-alive connection, one NDJSON record per POST.
	httpRate := func() float64 {
		s, base, _ := startTCPServer(t, o)
		body := []byte(fmt.Sprintf("{\"count\":%d}\n", batch))
		client := &http.Client{}
		start := time.Now()
		for i := 0; i < ops; i++ {
			resp, err := client.Post(base+"/ingest", "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("/ingest: status %d", resp.StatusCode)
			}
		}
		elapsed := time.Since(start)
		drainAndVerify(s, ops*batch)
		return float64(ops*batch) / elapsed.Seconds()
	}()

	// TCP leg: same message count, one frame per operation, acks consumed.
	tcpRate := func() float64 {
		s, _, tcpAddr := startTCPServer(t, o)
		// A deep credit window keeps flushes threshold-driven (~32 KiB
		// writes) instead of ack-gated: the server's acks accumulate in
		// the socket buffer and the client reads them in bursts.
		c, err := wire.Dial(tcpAddr, wire.ClientConfig{Credit: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		counts := []uint32{batch}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := c.Send(counts); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		elapsed := time.Since(start)
		drainAndVerify(s, ops*batch)
		return float64(ops*batch) / elapsed.Seconds()
	}()

	t.Logf("http %.3g msgs/s, tcp %.3g msgs/s, ratio %.1fx", httpRate, tcpRate, tcpRate/httpRate)
	if httpRate < 1e4 {
		t.Skipf("machine too slow for a meaningful comparison (http leg %.0f msgs/s)", httpRate)
	}
	if tcpRate < 5*httpRate {
		t.Errorf("tcp plane %.3g msgs/s is only %.1fx the http path %.3g msgs/s, want >= 5x",
			tcpRate, tcpRate/httpRate, httpRate)
	}
}

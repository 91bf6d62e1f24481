// Command windowd runs the controlled window protocol as a long-running
// admission-control service: element (4) of the paper's control policy —
// discard messages whose waiting-time constraint can no longer be met —
// applied online to a live arrival stream instead of a batch simulation
// horizon.
//
// Arrivals are ingested in one of two formats — newline-delimited JSON
// on POST /ingest, or internal/wire framed counts on the binary TCP plane
// (-listen-tcp), decoded straight into the owed-arrival ledger an order
// of magnitude past the HTTP path — or generated internally with
// -synthetic.  A single pump goroutine owns the incremental engine
// (sim.Stepper): each iteration it advances one decision epoch of
// virtual channel time and releases owed arrivals into the engine at the
// configured rate λ′ = ρ′/(M·τ), so under saturation the materialized
// arrival process is Poisson(λ′) in channel time — the same law the
// batch simulator draws, which is what makes the live shed fraction
// comparable to the batch element-(4) discard rate.  The ingest→schedule
// hot path is allocation-free at steady state.
//
// Observability: /debug/vars exposes the shared slot-level collector
// ("windowd") and the pump status ("windowd_engine") as expvar JSON;
// /metrics renders the same counters in the Prometheus text format
// (including wait quantiles, which can be +Inf and so cannot live in the
// JSON surface); /healthz reports liveness, drain state and the
// conservation invariants, which are re-verified at every published step
// boundary.  /config GET returns the running configuration and /config
// POST retunes protocol, constraint, load, window content or seed at
// runtime by swapping engines — the outgoing engine's conservation
// invariants are verified during the handoff.
//
// On SIGTERM or SIGINT the service drains: ingest returns 503, the pump
// schedules the remaining backlog (bounded by -drain-timeout), the engine
// is finished — stranded messages classified exactly as a batch run would
// — and the conservation checker must balance the books before the
// process exits 0.  The final report and metrics are printed to stdout.
//
// Usage:
//
//	windowd [-listen :8343] [-listen-tcp ADDR] [-tcp-max-owed N]
//	        [-protocol controlled] [-tau 1] [-m 25]
//	        [-k K | -km 2] [-load 0.75] [-g G] [-seed 1]
//	        [-synthetic] [-estimate-rate] [-max-backlog N]
//	        [-drain-timeout 10s] [-pprof]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"windowctl"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, new(usageError)):
		fmt.Fprintln(os.Stderr, "windowd:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "windowd:", err)
		os.Exit(1)
	}
}

// usageError marks a command-line validation failure (exit 2, per the
// repo's CLI convention), as opposed to a runtime failure (exit 1).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// run is the whole command behind a testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("windowd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":8343", "HTTP listen address")
	listenTCP := fs.String("listen-tcp", "", "binary-ingest TCP listen address (empty = disabled)")
	maxOwed := fs.Int64("tcp-max-owed", 0, "shed TCP ingest while the owed-arrival backlog exceeds N messages (0 = unbounded)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/ on the HTTP listener")
	proto := fs.String("protocol", "controlled", "protocol to schedule with: "+strings.Join(windowctl.ProtocolNames(), " | "))
	tau := fs.Float64("tau", 1, "slot time τ (virtual channel time units)")
	m := fs.Float64("m", 25, "message length M in slots")
	k := fs.Float64("k", 0, "waiting-time constraint K (absolute; 0 = use -km)")
	km := fs.Float64("km", 2, "waiting-time constraint in message times (used when -k is 0)")
	load := fs.Float64("load", 0.75, "design load ρ′: sets the virtual-time release rate λ′ = ρ′/(M·τ)")
	g := fs.Float64("g", 0, "mean window content G (0 = heuristic optimum)")
	seed := fs.Uint64("seed", 1, "random seed")
	synthetic := fs.Bool("synthetic", false, "generate Poisson(λ′) arrivals internally instead of requiring ingest")
	estimateRate := fs.Bool("estimate-rate", false, "derive initial windows from a live rate estimate instead of the configured λ′")
	maxBacklog := fs.Int("max-backlog", 0, "abort if the scheduled backlog exceeds N (0 = engine default)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "max wall time to run the backlog dry on shutdown")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected arguments: %v", fs.Args())}
	}
	o := options{
		listen: *listen, listenTCP: *listenTCP, maxOwed: *maxOwed,
		pprof: *pprofFlag, protocol: *proto, tau: *tau, m: *m, k: *k, km: *km,
		load: *load, g: *g, seed: *seed, synthetic: *synthetic,
		estimateRate: *estimateRate, maxBacklog: *maxBacklog,
		drainTimeout: *drainTimeout,
	}
	if err := o.validate(); err != nil {
		return usageError{err}
	}

	// Catch SIGTERM before the first listener exists: a signal that lands
	// once the address is announced must drain, not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	s, err := newServer(o)
	if err != nil {
		return usageError{err} // a bad protocol/constraint is a usage error
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "windowd: listening on %s (protocol=%s rho'=%g K=%g)\n",
		ln.Addr(), o.protocol, o.load, o.constraint())
	if o.listenTCP != "" {
		tln, err := net.Listen("tcp", o.listenTCP)
		if err != nil {
			ln.Close()
			return err
		}
		s.startTCP(tln)
		fmt.Fprintf(stderr, "windowd: tcp ingest on %s\n", tln.Addr())
	}

	httpSrv := &http.Server{Handler: s.routes()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "windowd: shutdown signal; draining")
	case err := <-serveErr:
		return err
	case <-s.done:
		// The pump died on its own (engine error); fall through to report.
	}
	s.beginDrain()
	<-s.done

	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shCtx)

	fin := s.final.Load()
	if fin == nil {
		return fmt.Errorf("pump exited without a final report")
	}
	fmt.Fprintf(stdout, "windowd: drained (ingested %d): %s\n", s.ingestedTotal(), fin.rep.String())
	fmt.Fprintf(stdout, "%s", s.shared.Format())
	if fin.err != nil {
		return fin.err
	}
	fmt.Fprintln(stdout, "windowd: conservation invariants verified; clean exit")
	return nil
}

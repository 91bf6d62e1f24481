package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"windowctl"
	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/sim"
	"windowctl/internal/window"
)

// options is windowd's runtime configuration: the protocol operating
// point plus the service knobs.  The zero value is not usable; main
// builds one from flags and /config POST builds amended copies.
type options struct {
	listen       string
	listenTCP    string // binary ingest plane address ("" = disabled)
	maxOwed      int64  // shed TCP frames past this owed backlog (0 = unbounded)
	pprof        bool
	protocol     string
	tau          float64
	m            float64
	k            float64 // absolute constraint; 0 means km·m·tau
	km           float64
	load         float64 // ρ′, the channel-time arrival rate target
	g            float64 // mean window content (0 = heuristic optimum)
	seed         uint64
	synthetic    bool // generate arrivals internally instead of ingest
	estimateRate bool // derive initial windows from a live rate estimate
	maxBacklog   int
	drainTimeout time.Duration
}

func (o options) constraint() float64 {
	if o.k != 0 {
		return o.k
	}
	return o.km * o.m * o.tau
}

// lambda is the virtual-time arrival rate λ′ = ρ′/(M·τ) the pump releases
// ingested messages at; it is also the rate the policy's view is built
// from when no estimator is running.
func (o options) lambda() float64 { return o.load / (o.m * o.tau) }

func (o options) validate() error {
	if !(o.tau > 0) || !(o.m > 0) {
		return fmt.Errorf("need positive -tau and -m (got %v, %v)", o.tau, o.m)
	}
	// The pump's Poisson(λ′·elapsed) release, of mean ρ′/M per slot, wraps
	// negative past int range.  10³ is 500× the benchmark's overload point
	// ρ′ = 2 (the paper runs ρ′ ≤ 0.75) and keeps every draw inside int.
	if !(o.load > 0) || o.load > 1e3 || o.load/o.m > 1e3 {
		return fmt.Errorf("need 0 < -load <= 1000 and -load/-m <= 1000 (got %v, %v)", o.load, o.m)
	}
	if c := o.constraint(); !(c > 0) || c > 1e15 {
		return fmt.Errorf("need a positive finite constraint (-k/-km give %v)", c)
	}
	// Far below the optimum G* ≈ 1.09 the initial window g/λ′ rounds to
	// empty against the clock and the engine stops with an error.
	if o.g != 0 && !(o.g >= 1e-3) {
		return fmt.Errorf("-g must be 0 or >= 0.001, got %v", o.g)
	}
	if o.maxBacklog < 0 {
		return fmt.Errorf("-max-backlog must be >= 0, got %d", o.maxBacklog)
	}
	if o.maxOwed < 0 {
		return fmt.Errorf("-tcp-max-owed must be >= 0, got %d", o.maxOwed)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", o.drainTimeout)
	}
	return nil
}

// engine builds the incremental engine for this configuration: the policy
// comes from the protocol registry exactly as the batch CLIs build it, so
// the service runs the same control law the simulators measure.
func (o options) engine(col metrics.Collector) (*sim.Stepper, *window.RateEstimator, error) {
	sys := windowctl.System{
		Tau: o.tau, M: o.m, RhoPrime: o.load, K: o.constraint(),
		Seed: o.seed, WindowG: o.g,
	}
	if d, err := windowctl.ParseDiscipline(o.protocol); err == nil {
		sys.Discipline = d
	} else {
		sys.Protocol = o.protocol
	}
	pol, err := sys.Policy()
	if err != nil {
		return nil, nil, err
	}
	cfg := sim.Config{
		Policy: pol, Tau: o.tau, M: o.m, Lambda: o.lambda(), K: o.constraint(),
		Seed: o.seed, MaxBacklog: o.maxBacklog, Collector: col,
	}
	var est *window.RateEstimator
	if o.estimateRate {
		// Online re-derivation of the element-(2) initial-window rule: the
		// policy's view rate comes from this estimator instead of the
		// configured λ′, updated from every completed windowing process.
		// The half-life spans a few hundred message times so the estimate
		// rides load swings without chasing per-window noise.
		est = window.NewRateEstimator(cfg.Lambda, 200*o.m*o.tau)
		cfg.RateEstimator = est
	}
	st, err := sim.NewStepper(cfg)
	if err != nil {
		return nil, nil, err
	}
	return st, est, nil
}

// engineStatus is the pump's published state, refreshed at step
// boundaries (where the conservation invariants hold exactly) and
// exported as the "windowd_engine" expvar.
type engineStatus struct {
	Protocol     string  `json:"protocol"`
	RhoPrime     float64 `json:"rho_prime"`
	Lambda       float64 `json:"lambda"`
	K            float64 `json:"k"`
	VirtualNow   float64 `json:"virtual_now"`
	Backlog      int     `json:"backlog"`
	OwedArrivals int64   `json:"owed_arrivals"`
	Steps        uint64  `json:"steps"`
	RateEstimate float64 `json:"rate_estimate,omitempty"`
	Conservation string  `json:"conservation"`
	Draining     bool    `json:"draining"`
	Finished     bool    `json:"finished"`
}

type finalResult struct {
	rep sim.Report
	err error
}

type ctrlMsg struct {
	opts  options
	reply chan error
}

// server owns the engine pump and the HTTP surface.  All engine access
// happens on the single pump goroutine; handlers communicate through the
// owed-arrival ledger, the notify channel and the ctrl channel.
type server struct {
	shared *metrics.Shared

	owed         atomic.Int64 // booked, not yet released; only the pump subtracts
	ingestedHTTP atomic.Int64 // booked per transport, cumulative
	ingestedTCP  atomic.Int64
	tcpFrames    atomic.Int64 // counts frames booked by the TCP plane
	tcpConns     atomic.Int64 // open TCP ingest connections (gauge)

	tcp     *tcpPlane // nil when -listen-tcp is off
	maxOwed int64
	pprofOn bool

	draining  atomic.Bool
	notify    chan struct{}
	ctrl      chan ctrlMsg
	drainCh   chan struct{}
	drainOnce sync.Once
	done      chan struct{}

	status atomic.Pointer[engineStatus]
	final  atomic.Pointer[finalResult]

	optsMu sync.Mutex
	opts   options

	startWall time.Time
}

func newServer(o options) (*server, error) {
	// An enormous constraint must not translate into an enormous
	// histogram; waits past the covered range land in the overflow bin.
	// Clamp before the float→int conversion: past int range the
	// conversion itself is implementation-defined (negative on amd64)
	// and would slip under an int-side clamp.
	b := o.constraint() / o.tau
	if !(b >= 0) || b > 1<<20 {
		b = 1 << 20
	}
	bins := int(b)
	s := &server{
		shared:    metrics.NewShared(o.tau, bins+64),
		notify:    make(chan struct{}, 1),
		ctrl:      make(chan ctrlMsg),
		drainCh:   make(chan struct{}),
		done:      make(chan struct{}),
		opts:      o,
		maxOwed:   o.maxOwed,
		pprofOn:   o.pprof,
		startWall: time.Now(),
	}
	st, est, err := o.engine(s.shared)
	if err != nil {
		return nil, err
	}
	if err := s.shared.Publish("windowd"); err != nil {
		return nil, err
	}
	if err := metrics.PublishVar("windowd_engine", expvar.Func(func() any {
		if st := s.status.Load(); st != nil {
			return *st
		}
		return engineStatus{}
	})); err != nil {
		return nil, err
	}
	if err := metrics.PublishVar("windowd_ingest", expvar.Func(func() any {
		return map[string]int64{
			"total":  s.ingestedTotal(),
			"http":   s.ingestedHTTP.Load(),
			"tcp":    s.ingestedTCP.Load(),
			"frames": s.tcpFrames.Load(),
			"conns":  s.tcpConns.Load(),
		}
	})); err != nil {
		return nil, err
	}
	s.status.Store(&engineStatus{Protocol: o.protocol, RhoPrime: o.load, Lambda: o.lambda(), K: o.constraint(), Conservation: "ok"})
	go s.pump(st, o, est)
	return s, nil
}

// ingestedTotal is the cumulative count booked over both transports.
func (s *server) ingestedTotal() int64 { return s.ingestedHTTP.Load() + s.ingestedTCP.Load() }

// currentOpts returns the configuration in effect (the pump updates it on
// reconfiguration).
func (s *server) currentOpts() options {
	s.optsMu.Lock()
	defer s.optsMu.Unlock()
	return s.opts
}

func (s *server) setOpts(o options) {
	s.optsMu.Lock()
	s.opts = o
	s.optsMu.Unlock()
}

// beginDrain asks the pump to run the backlog dry and finish; it is
// idempotent and safe from any goroutine.
func (s *server) beginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		if s.tcp != nil {
			// Stop the ingest plane first so readers wind down while the
			// pump runs the backlog dry; drain() waits for them before its
			// final accounting.
			s.tcp.close()
		}
		close(s.drainCh)
	})
}

// pumpState is the pump goroutine's working set: the engine and the
// release RNG.
type pumpState struct {
	s     *server
	st    *sim.Stepper
	o     options
	lam   float64
	est   *window.RateEstimator
	rel   *rngutil.Stream
	steps uint64
}

// pump is the single goroutine owning the engine.  Each iteration
// advances one decision epoch and releases owed arrivals into the engine
// at the configured virtual rate λ′ — so under saturation the
// materialized arrival process is Poisson(λ′) in channel time, matching
// the batch simulator's arrival law, while the owed ledger (one integer)
// absorbs any wall-clock burst without allocating.
func (s *server) pump(st *sim.Stepper, o options, est *window.RateEstimator) {
	defer close(s.done)
	p := &pumpState{
		s: s, st: st, o: o, lam: o.lambda(), est: est,
		// The release stream is separate from the engine's seed so the
		// engine's own randomness stays aligned with an equally-seeded
		// batch run.
		rel: rngutil.New(o.seed ^ 0x6a09e667f3bcc909),
	}
	for {
		select {
		case m := <-s.ctrl:
			p.reconfigure(m)
			continue
		case <-s.drainCh:
			p.drain()
			return
		default:
		}
		if !p.o.synthetic && s.owed.Load() == 0 && p.st.Backlog() == 0 {
			// Idle: nothing to schedule and nothing owed.  Freeze virtual
			// time and park until an ingest, reconfiguration or drain.
			p.publish(p.st.CheckNow())
			select {
			case <-s.notify:
			case m := <-s.ctrl:
				p.reconfigure(m)
			case <-s.drainCh:
				p.drain()
				return
			}
			continue
		}
		if err := p.advance(); err != nil {
			p.fail(err)
			return
		}
		if p.steps&1023 == 0 {
			p.publish(p.st.CheckNow())
		}
	}
}

// advance runs one decision epoch and releases owed arrivals matched to
// the channel time it consumed.  This is the ingest→schedule hot path:
// with the engine warm it performs zero allocations per call.
func (p *pumpState) advance() error {
	before := p.st.Now()
	if err := p.st.Step(); err != nil {
		return err
	}
	elapsed := p.st.Now() - before
	n := int64(p.rel.Poisson(p.lam * elapsed))
	if !p.o.synthetic {
		n = min(n, p.s.owed.Load())
		p.s.owed.Add(-n)
	}
	p.st.Inject(int(n))
	p.steps++
	return nil
}

// reconfigure swaps the engine for one built from the new options: the
// new engine is constructed first (construction errors leave the old one
// running), then the old engine is finished — its conservation invariants
// verified — and the shared collector simply keeps accumulating across
// the swap.  Messages still queued in the outgoing engine are re-injected
// into the incoming one so a /config POST under load does not shed the
// in-flight backlog; the outgoing engine's Finish books them as censored
// residents and the incoming engine counts them as fresh arrivals, so the
// cumulative arrival counter advances by the carried count at each swap
// (see docs/SERVICE.md).
func (p *pumpState) reconfigure(m ctrlMsg) {
	st, est, err := m.opts.engine(p.s.shared)
	if err != nil {
		m.reply <- usageError{err} // e.g. an unknown protocol: the request's fault
		return
	}
	carry := p.st.Backlog()
	if _, err = p.st.Finish(); err != nil {
		// The outgoing engine's books do not balance: surface it to the
		// caller and keep serving with the fresh engine.
		err = fmt.Errorf("finishing previous engine: %w", err)
	}
	p.st, p.est, p.o, p.lam = st, est, m.opts, m.opts.lambda()
	if carry > 0 {
		p.st.Inject(carry)
	}
	p.s.setOpts(m.opts)
	p.publish(nil)
	m.reply <- err // last: the handler then echoes the new configuration
}

// drain runs the engine dry: release and schedule until nothing is owed
// and nothing is pending (or the drain timeout expires), then finish —
// classifying any stranded residents — and verify the conservation
// invariants one final time.
func (p *pumpState) drain() {
	// The TCP readers were cut off by beginDrain; wait (bounded) for them
	// to finish so every frame acknowledged before the cut is booked
	// before the final accounting below.
	p.s.shutdownTCP(2 * time.Second)
	deadline := time.Now().Add(p.o.drainTimeout)
	p.o.synthetic = false // stop generating; only owed messages remain
	for time.Now().Before(deadline) && (p.s.owed.Load() > 0 || p.st.Backlog() > 0) {
		if err := p.advance(); err != nil {
			p.fail(err)
			return
		}
		if p.steps&1023 == 0 {
			p.publish(nil)
		}
	}
	// On timeout the messages still owed go in as one count, which
	// Finish books as censored residents without stamping them.
	p.st.Inject(int(p.s.owed.Swap(0)))
	rep, err := p.st.Finish()
	p.s.final.Store(&finalResult{rep: rep, err: err})
	p.publishFinished(err)
}

func (p *pumpState) fail(err error) {
	rep, _ := p.st.Finish()
	p.s.final.Store(&finalResult{rep: rep, err: err})
	p.publishFinished(err)
}

func (p *pumpState) publish(conservation error) {
	st := &engineStatus{
		Protocol: p.o.protocol, RhoPrime: p.o.load, Lambda: p.lam, K: p.o.constraint(),
		VirtualNow: p.st.Now(), Backlog: p.st.Backlog(), OwedArrivals: p.s.owed.Load(),
		Steps: p.steps, Conservation: "ok", Draining: p.s.draining.Load(),
	}
	if p.est != nil {
		st.RateEstimate = p.est.Rate()
	}
	if conservation != nil {
		st.Conservation = conservation.Error()
	}
	p.s.status.Store(st)
}

func (p *pumpState) publishFinished(err error) {
	p.publish(err)
	st := *p.s.status.Load()
	st.Finished = true
	p.s.status.Store(&st)
}

// routes builds the HTTP surface.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /config", s.handleConfigGet)
	mux.HandleFunc("POST /config", s.handleConfigPost)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if s.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("POST /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// book credits n externally arrived messages to a transport counter and
// wakes the pump.  It is the single booking point shared by the HTTP
// handlers and the TCP readers — one atomic add per batch, no locks.
func (s *server) book(n int64, transport *atomic.Int64) {
	s.owed.Add(n)
	transport.Add(n)
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// accept books n externally arrived messages from an HTTP request.
func (s *server) accept(w http.ResponseWriter, n int64) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.book(n, &s.ingestedHTTP)
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"accepted\":%d}\n", n)
}

// handleIngest accepts newline-delimited JSON records, one batch per
// line: {"count": N}.  An empty object (or omitted count) means one
// message.  A count outside [0, 2^32-1] — the per-entry bound of the
// wire plane — is a 400, which also keeps a 16 MiB body's total far
// from int64 overflow.  The whole body is booked atomically at the end.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(io.LimitReader(r.Body, 16<<20))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<10)
	var total int64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Count *int64 `json:"count"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			http.Error(w, fmt.Sprintf("bad record %q: %v", line, err), http.StatusBadRequest)
			return
		}
		n := int64(1)
		if rec.Count != nil {
			n = *rec.Count
		}
		if n < 0 || n > math.MaxUint32 {
			http.Error(w, fmt.Sprintf("count %d outside [0, %d]", n, uint32(math.MaxUint32)), http.StatusBadRequest)
			return
		}
		total += n
	}
	if err := sc.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.accept(w, total)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.done:
		http.Error(w, "pump stopped", http.StatusServiceUnavailable)
		return
	default:
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if st := s.status.Load(); st != nil && st.Conservation != "ok" {
		http.Error(w, "conservation violated: "+st.Conservation, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the counters in the Prometheus text exposition
// format.  The wait quantiles live here (not in the expvar snapshot)
// because a quantile in the histogram's overflow region is +Inf, which
// this format can represent and JSON cannot.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.shared.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	line := func(name string, v any) {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(x))
		default:
			fmt.Fprintf(w, "%s %v\n", name, v)
		}
	}
	line("windowd_arrivals_total", snap.Arrivals)
	line("windowd_ingested_total", s.ingestedTotal())
	fmt.Fprintf(w, "windowd_ingested_total{transport=\"http\"} %d\n", s.ingestedHTTP.Load())
	fmt.Fprintf(w, "windowd_ingested_total{transport=\"tcp\"} %d\n", s.ingestedTCP.Load())
	line("windowd_ingest_frames_total", s.tcpFrames.Load())
	line("windowd_ingest_conns", s.tcpConns.Load())
	line("windowd_transmissions_total", snap.Transmissions)
	line("windowd_accepted_total", snap.Accepted)
	line("windowd_late_total", snap.Late)
	line("windowd_shed_total", snap.Discards)
	line("windowd_shed_fraction", snap.DiscardFraction)
	line("windowd_splits_total", snap.Splits)
	line("windowd_idle_slots_total", snap.IdleSlots)
	line("windowd_success_slots_total", snap.SuccessSlots)
	line("windowd_collision_slots_total", snap.CollisionSlots)
	line("windowd_channel_utilization", snap.Utilization)
	line("windowd_wait_mean", snap.WaitMean)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "windowd_wait_quantile{q=\"%g\"} %s\n", q, formatFloat(s.shared.WaitQuantile(q)))
	}
	if st := s.status.Load(); st != nil {
		line("windowd_virtual_now", st.VirtualNow)
		line("windowd_backlog", st.Backlog)
		line("windowd_owed_arrivals", st.OwedArrivals)
		line("windowd_steps_total", st.Steps)
		if st.RateEstimate != 0 {
			line("windowd_rate_estimate", st.RateEstimate)
		}
		healthy := 0
		if st.Conservation == "ok" {
			healthy = 1
		}
		line("windowd_conservation_ok", healthy)
	}
}

// formatFloat renders a float for the text exposition format, spelling
// infinities the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (s *server) handleConfigGet(w http.ResponseWriter, r *http.Request) {
	o := s.currentOpts()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"protocol": o.protocol, "tau": o.tau, "m": o.m, "k": o.constraint(),
		"load": o.load, "g": o.g, "seed": o.seed,
		"synthetic": o.synthetic, "estimate_rate": o.estimateRate,
		"max_backlog": o.maxBacklog, "drain_timeout": o.drainTimeout.String(),
		"listen_tcp": o.listenTCP, "tcp_addr": s.tcpAddr(),
		"tcp_max_owed": o.maxOwed,
	})
}

// handleConfigPost retunes the running service: the request carries the
// fields to change (protocol, k or km, load, g, seed, synthetic), the new
// engine is built and swapped on the pump goroutine, and the previous
// engine's conservation invariants are verified during the handoff.  Tau
// cannot change at runtime: the shared collector's histogram bin width is
// fixed at τ.
func (s *server) handleConfigPost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Protocol  *string  `json:"protocol"`
		M         *float64 `json:"m"`
		K         *float64 `json:"k"`
		KM        *float64 `json:"km"`
		Load      *float64 `json:"load"`
		G         *float64 `json:"g"`
		Seed      *uint64  `json:"seed"`
		Synthetic *bool    `json:"synthetic"`
		Tau       *float64 `json:"tau"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Tau != nil {
		http.Error(w, "tau cannot change at runtime (metrics bin width is fixed at tau)", http.StatusBadRequest)
		return
	}
	o := s.currentOpts()
	if req.Protocol != nil {
		o.protocol = *req.Protocol
	}
	if req.M != nil {
		o.m = *req.M
	}
	if req.K != nil {
		o.k = *req.K
	}
	if req.KM != nil {
		o.km = *req.KM
		if req.K == nil {
			o.k = 0 // km only: drop a previous absolute constraint
		}
	}
	if req.Load != nil {
		o.load = *req.Load
	}
	if req.G != nil {
		o.g = *req.G
	}
	if req.Seed != nil {
		o.seed = *req.Seed
	}
	if req.Synthetic != nil {
		o.synthetic = *req.Synthetic
	}
	if err := o.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m := ctrlMsg{opts: o, reply: make(chan error, 1)}
	select {
	case s.ctrl <- m:
	case <-s.done:
		http.Error(w, "pump stopped", http.StatusServiceUnavailable)
		return
	case <-time.After(5 * time.Second):
		http.Error(w, "pump busy", http.StatusServiceUnavailable)
		return
	}
	if err := <-m.reply; err != nil {
		code := http.StatusInternalServerError
		if errors.As(err, new(usageError)) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.handleConfigGet(w, r)
}

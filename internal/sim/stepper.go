package sim

import (
	"fmt"
	"math"

	"windowctl/internal/metrics"
)

// Stepper is the incremental run mode of the global-view engine: instead
// of simulating a Poisson arrival stream to a fixed horizon (RunGlobal),
// a Stepper accepts externally injected arrivals and advances one
// decision epoch per Step call, so a long-running process (cmd/windowd)
// can pump it forever, interleaving ingest, scheduling and scrapes.
//
// The simulated clock is virtual channel time in the configuration's
// units; it is decoupled from wall time and advances by at least one
// slot τ per Step.  Injected arrivals are buffered as a bare count and
// materialized into arrival stamps at the start of the next Step — see
// materialize for the stamping discipline — so Inject is O(1) and the
// ingest→schedule path stays allocation-free at steady state.
//
// A Stepper is not safe for concurrent use; the intended shape is one
// pump goroutine owning the Stepper, with other goroutines handing it
// counts through their own synchronization (windowd's pump releases from
// an atomic owed-arrival ledger once per Step).
type Stepper struct {
	g *globalState

	// queued is the count of injected-but-not-yet-materialized arrivals.
	queued int
	// lastStamp is the largest arrival stamp handed to the pending queue;
	// stamps must be strictly increasing (duplicate keys would make a
	// collision unresolvable and split forever).
	lastStamp float64

	checkpoint metrics.Checkpoint
	checker    metrics.ConservationChecker
	opened     bool // checkpoint taken
	finished   bool
	rep        Report
}

// NewStepper builds an incremental engine from the configuration.  The
// configuration is validated as for RunGlobal, with two adjustments:
// ExternalArrivals is forced on (the caller owns the arrival stream) and
// a zero EndTime means an unbounded horizon (+Inf).  A finite EndTime is
// honored: Step returns ErrHorizon once the clock reaches it.
func NewStepper(cfg Config) (*Stepper, error) {
	cfg.ExternalArrivals = true
	if cfg.EndTime == 0 {
		cfg.EndTime = math.Inf(1)
	}
	g, err := newGlobalState(cfg)
	if err != nil {
		return nil, err
	}
	return &Stepper{g: g}, nil
}

// open checkpoints the collector on first use rather than at
// construction: an engine built while another one still books into a
// shared collector (windowd's /config swap finishes the outgoing engine
// after building the incoming one) must not count those final bookings
// as its own.
func (s *Stepper) open() {
	if !s.opened {
		s.opened = true
		s.checkpoint, s.checker = conservationStart(s.g.cfg.Collector)
	}
}

// ErrHorizon is returned by Step once the clock has reached a finite
// configured EndTime; the engine is still intact and Finish may be called.
var ErrHorizon = fmt.Errorf("sim: stepper reached the configured horizon")

// Inject adds n externally observed arrivals to be materialized at the
// next Step.  It panics on negative n and is a no-op for n == 0 or after
// Finish.
func (s *Stepper) Inject(n int) {
	if n < 0 {
		panic("sim: negative arrival count")
	}
	if s.finished {
		return
	}
	s.queued += n
}

// Step materializes the injected arrivals and advances the engine by one
// decision epoch (one windowing process, or one idle slot when there is
// nothing to examine).  The clock advances by at least τ.  Errors other
// than ErrHorizon (backlog overflow, engine invariant violations) leave
// the Stepper unusable except for Finish.
func (s *Stepper) Step() error {
	if s.finished {
		return fmt.Errorf("sim: Step after Finish")
	}
	if s.g.now >= s.g.cfg.EndTime {
		return ErrHorizon
	}
	s.open()
	s.materialize()
	return s.g.step()
}

// materialize converts the buffered arrival count into arrival stamps.
//
// The pending queue requires strictly increasing keys, and the protocol
// needs stamps spread over real channel time (n arrivals on one instant
// would look like an unresolvable burst).  The n stamps are therefore
// stratified uniformly over one slot-length interval (lo, lo+τ] with
// lo = max(lastStamp, now−τ): stamp_i = lo + (i + U_i)·τ/n with
// U_i ∈ (0,1) open, which is strictly increasing by construction, needs
// no sorting and allocates nothing.  Stamps may lead the clock by up to
// τ; such arrivals are invisible to the window machinery until the clock
// passes them, which is exactly how a future arrival should behave.
func (s *Stepper) materialize() {
	n := s.queued
	if n == 0 {
		return
	}
	s.queued = 0
	g := s.g
	lo := max(s.lastStamp, g.now-g.cfg.Tau)
	width := g.cfg.Tau / float64(n)
	for i := 0; i < n; i++ {
		stamp := lo + (float64(i)+g.rng.Float64Open())*width
		if stamp <= s.lastStamp {
			// 1-ulp backstop: with millions of stamps per slot the strata
			// can collapse below float resolution.
			stamp = math.Nextafter(s.lastStamp, math.Inf(1))
		}
		s.lastStamp = stamp
		g.pending.Push(stamp, stamp >= g.cfg.Warmup)
		if stamp >= g.cfg.Warmup {
			g.rep.Offered++
		}
	}
	g.col.RecordArrivals(int64(n))
	if l := g.pending.Len(); l > g.rep.MaxBacklog {
		g.rep.MaxBacklog = l
	}
}

// Now returns the current virtual channel time.
func (s *Stepper) Now() float64 { return s.g.now }

// Backlog returns the number of pending messages, including arrivals
// injected but not yet materialized.
func (s *Stepper) Backlog() int { return s.g.pending.Len() + s.queued }

// CheckNow verifies the conservation invariants against the collector at
// the current step boundary (between Step calls the engine's counters are
// exactly consistent).  The resident count deliberately excludes arrivals
// injected but not yet materialized: they are outside the collector's
// books until materialize records them, so counting them here would make
// the check fail spuriously whenever Inject was called since the last
// Step.  It returns nil when the configuration has no conservation-
// checking collector.
func (s *Stepper) CheckNow() error {
	s.open()
	if s.checker == nil {
		return nil
	}
	return s.checker.CheckConservation(s.checkpoint, int64(s.g.pending.Len()), s.g.now)
}

// Finish finalizes the run at the current clock: messages still pending
// are classified against their age now (not against a horizon), the
// conservation invariants are verified, and the report is returned.  The
// Stepper cannot be stepped afterwards.
func (s *Stepper) Finish() (Report, error) {
	if s.finished {
		return s.rep, nil
	}
	s.finished = true
	s.open()
	s.bookQueued()
	s.g.finishAt(s.g.now)
	s.g.rep.EndBacklog += s.queued
	s.rep = s.g.rep
	if s.checker != nil {
		if err := s.checker.CheckConservation(s.checkpoint, int64(s.Backlog()), s.g.now); err != nil {
			return s.rep, fmt.Errorf("sim: %w", err)
		}
	}
	return s.rep, nil
}

// bookQueued books the arrivals queued at Finish as censored residents
// in O(1), leaving them in queued, when materialize would stamp them all
// at or above a lo past the warmup with now−lo ≤ K: all measured and
// censored.  Otherwise (K < τ, or a clock near the warmup) it stamps them.
func (s *Stepper) bookQueued() {
	g, n := s.g, s.queued
	lo := max(s.lastStamp, g.now-g.cfg.Tau)
	if n == 0 || lo < g.cfg.Warmup || g.now-lo > g.cfg.K {
		s.materialize()
		return
	}
	g.rep.Offered += int64(n)
	g.rep.Censored += int64(n) // finishAt hands the total to the collector
	g.col.RecordArrivals(int64(n))
	g.rep.MaxBacklog = max(g.rep.MaxBacklog, g.pending.Len()+n)
}

// Report returns the finalized report; it is only meaningful after
// Finish.
func (s *Stepper) Report() Report { return s.rep }

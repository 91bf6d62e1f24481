package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

func stepperConfig() Config {
	return Config{
		Policy: window.Controlled{Length: window.FixedG(2.6)},
		Tau:    1,
		M:      25,
		Lambda: 0.75 / 25,
		K:      100,
		Seed:   97,
	}
}

// drive pumps the stepper for the given virtual duration, injecting a
// Poisson arrival count matched to the channel time each Step consumed —
// the open-loop analogue of the internal arrival stream.
func drive(t *testing.T, s *Stepper, lambda, duration float64, seed uint64) {
	t.Helper()
	rng := rngutil.New(seed)
	end := s.Now() + duration
	for s.Now() < end {
		before := s.Now()
		if err := s.Step(); err != nil {
			t.Fatalf("Step at t=%v: %v", s.Now(), err)
		}
		elapsed := s.Now() - before
		if elapsed < 0 {
			t.Fatalf("clock went backwards: %v", elapsed)
		}
		s.Inject(int(rng.Poisson(lambda * elapsed)))
	}
}

// The stepper's books must balance exactly like a horizon run's: every
// arrival is transmitted, discarded or still resident, and the collector's
// channel-time accounting covers the whole clock.
func TestStepperConservation(t *testing.T) {
	cfg := stepperConfig()
	col := metrics.NewSlotMetrics(cfg.Tau, 200)
	cfg.Collector = col
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}

	drive(t, s, cfg.Lambda, 50000, 11)
	// Mid-run checks at step boundaries must already hold.
	if err := s.CheckNow(); err != nil {
		t.Fatalf("mid-run conservation: %v", err)
	}
	drive(t, s, cfg.Lambda, 50000, 12)

	rep, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	snap := col.Snapshot()
	if snap.Arrivals == 0 || rep.Transmissions == 0 {
		t.Fatalf("run did nothing: arrivals=%d transmissions=%d", snap.Arrivals, rep.Transmissions)
	}
	if got := snap.Transmissions + snap.Discards + int64(rep.EndBacklog); got != snap.Arrivals {
		t.Errorf("message conservation: tx %d + discards %d + resident %d = %d, want arrivals %d",
			snap.Transmissions, snap.Discards, rep.EndBacklog, got, snap.Arrivals)
	}
	if rep.Offered != rep.AcceptedInTime+rep.LostSender+rep.LostLate+rep.LostPending+rep.Censored+int64(unmeasuredResident(rep)) {
		// Offered counts measured arrivals; all of them must be classified.
		t.Errorf("report classification does not cover Offered: %+v", rep)
	}
}

// unmeasuredResident is the slack term in the measured-message balance:
// with Warmup 0 every resident message is measured, and the end-of-run
// classifier assigns each to LostPending or Censored, so the slack is 0.
func unmeasuredResident(Report) int { return 0 }

// CheckNow must hold right after Inject: queued arrivals are outside the
// collector's books until the next Step materializes them, so counting
// them as resident would report a phantom conservation violation on the
// exact sequence windowd's pump runs (Step → Inject → CheckNow).
func TestStepperCheckNowAfterInject(t *testing.T) {
	cfg := stepperConfig()
	col := metrics.NewSlotMetrics(cfg.Tau, 200)
	cfg.Collector = col
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Inject(3)
	if err := s.CheckNow(); err != nil {
		t.Fatalf("conservation falsely violated with queued arrivals: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		s.Inject(2)
		if err := s.CheckNow(); err != nil {
			t.Fatalf("step %d: conservation with queued arrivals: %v", i, err)
		}
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// Finishing at the current clock must classify residents by their *age
// now*: a message injected moments ago is censored, not lost.
func TestStepperFinishClassifiesByAge(t *testing.T) {
	cfg := stepperConfig()
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Let the clock move, then inject fresh arrivals and finish at once:
	// their age is < τ ≪ K, so they must land in Censored.
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s.Inject(5)
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostPending != 0 {
		t.Errorf("fresh residents counted lost: LostPending=%d", rep.LostPending)
	}
	if rep.Censored != 5 {
		t.Errorf("Censored = %d, want 5", rep.Censored)
	}
}

// A finite EndTime keeps its meaning in stepped mode: Step refuses to run
// past the horizon.
func TestStepperHorizon(t *testing.T) {
	cfg := stepperConfig()
	cfg.EndTime = 20 // a few slots
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		err := s.Step()
		if err == ErrHorizon {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if steps++; steps > 1000 {
			t.Fatal("horizon never reached")
		}
	}
	if s.Now() < 20 {
		t.Errorf("stopped at t=%v before the horizon", s.Now())
	}
	if _, err := s.Finish(); err != nil {
		t.Errorf("Finish after horizon: %v", err)
	}
}

// The element-(4) shed fraction of a stepped run fed open-loop Poisson
// counts must agree with the batch simulator's internal Poisson stream at
// the same operating point — the acceptance criterion that windowd's
// shedding is the same control law, not a lookalike.
func TestStepperShedMatchesBatch(t *testing.T) {
	cfg := stepperConfig()
	cfg.M = 10
	cfg.K = cfg.M * cfg.Tau // K/M = 1: heavy element-(4) shedding
	cfg.Lambda = 0.9 / (cfg.M * cfg.Tau)
	cfg.EndTime = 300000

	batch, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	scfg := cfg
	scfg.EndTime = 0
	s, err := NewStepper(scfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, cfg.Lambda, 300000, 23)
	stepped, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}

	shed := func(r Report) float64 { return float64(r.LostSender) / float64(r.Offered) }
	b, sf := shed(batch), shed(stepped)
	if b <= 0 || sf <= 0 {
		t.Fatalf("expected shedding at K/M=1: batch=%v stepped=%v", b, sf)
	}
	if diff := math.Abs(b - sf); diff > 0.03 {
		t.Errorf("shed fraction diverges: batch %.4f vs stepped %.4f (|Δ| = %.4f > 0.03)", b, sf, diff)
	}
}

// The ingest→schedule hot path inherits the engine's zero-allocation
// contract: once warm, Inject+Step allocates nothing.
func TestStepperZeroAlloc(t *testing.T) {
	cfg := stepperConfig()
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rngutil.New(5)
	pump := func() {
		before := s.Now()
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		s.Inject(int(rng.Poisson(cfg.Lambda * (s.Now() - before))))
	}
	for i := 0; i < 200000; i++ {
		pump()
	}
	if avg := testing.AllocsPerRun(100000, pump); avg != 0 {
		t.Fatalf("steady-state Inject+Step allocates %v times per run; the ingest→schedule hot path must be allocation-free", avg)
	}
}

// Stamps handed to the pending queue must be strictly increasing even
// under burst injection far beyond one arrival per slot — the queue
// panics on decreasing keys and collisions between equal keys would
// split forever, so this is load-bearing for windowd under saturation.
func TestStepperBurstInjection(t *testing.T) {
	cfg := stepperConfig()
	cfg.MaxBacklog = 1 << 21
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Inject(1 << 20) // a million arrivals in one slot
	for i := 0; i < 2000; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d under burst: %v", i, err)
		}
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transmissions == 0 && rep.LostSender == 0 {
		t.Error("burst produced no protocol activity")
	}
}

// A windowd drain that times out hands its still-owed messages to Finish
// as one queued count.  Finish must book them as censored residents
// without stamping each into the pending queue (10⁷ stamps cost ~470 MB
// and a second), with the books balancing.
func TestStepperFinishQueuedBoundedMemory(t *testing.T) {
	cfg := stepperConfig()
	col := metrics.NewSlotMetrics(cfg.Tau, 200)
	cfg.Collector = col
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Inject(n)
	rep, err := s.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("Finish with %d queued allocated %d MB, want < 16 MB", n, grew>>20)
	}
	if rep.Offered != n || rep.Censored != n || rep.EndBacklog != n || rep.MaxBacklog != n {
		t.Errorf("report: offered %d censored %d end backlog %d max backlog %d, want %d each",
			rep.Offered, rep.Censored, rep.EndBacklog, rep.MaxBacklog, n)
	}
	if col.Arrivals != n || col.PendingCensored != n || s.Backlog() != n {
		t.Errorf("collector arrivals %d censored %d, backlog %d, want %d each",
			col.Arrivals, col.PendingCensored, s.Backlog(), n)
	}
}

// Booking the queued count at Finish must leave the report and the
// collector exactly as stamping every queued arrival would, including
// when K < τ, where stamps can land on either side of K and are still
// materialized.
func TestStepperFinishQueuedMatchesMaterialize(t *testing.T) {
	for _, k := range []float64{100, 0.5} {
		finish := func(stamp bool) (Report, *metrics.SlotMetrics) {
			cfg := stepperConfig()
			cfg.K = k
			col := metrics.NewSlotMetrics(cfg.Tau, 200)
			cfg.Collector = col
			s, err := NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, s, cfg.Lambda, 5000, 3)
			s.Inject(1000)
			if stamp {
				s.materialize()
			}
			rep, err := s.Finish()
			if err != nil {
				t.Fatalf("K=%v: Finish: %v", k, err)
			}
			return rep, col
		}
		counted, countedCol := finish(false)
		stamped, stampedCol := finish(true)
		if !reflect.DeepEqual(counted, stamped) {
			t.Errorf("K=%v: report\n%+v\nwant the materialized\n%+v", k, counted, stamped)
		}
		if !reflect.DeepEqual(countedCol, stampedCol) {
			t.Errorf("K=%v: collector\n%+v\nwant the materialized\n%+v", k, countedCol, stampedCol)
		}
	}
}

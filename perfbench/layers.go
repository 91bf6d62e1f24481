package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"windowctl"
	"windowctl/internal/metrics"
	"windowctl/internal/numerics"
	"windowctl/internal/queueing"
	"windowctl/internal/rngutil"
	"windowctl/internal/sim"
	"windowctl/internal/wire"
)

// The layer probes time calls into each layer's public functions
// in-process, at the operating point of the workload being traced.  They
// run while no windowd is alive, so they do not compete with it.

// minProbe is the least wall time a probe loop measures.
const minProbe = 200 * time.Millisecond

// timeLoop runs fn(n) for doubling n until one call lasts minProbe and
// returns the nanoseconds per unit of n of that call.
func timeLoop(fn func(n int)) float64 {
	for n := 1; ; n *= 2 {
		t0 := time.Now()
		fn(n)
		if el := time.Since(t0); el >= minProbe {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// wireProbe prices the codec for one frame of the given number of counts.
func wireProbe(counts int) (encodeNs, decodeNs float64, err error) {
	cs := make([]uint32, counts)
	for i := range cs {
		cs[i] = uint32(1 + i%8)
	}
	buf := make([]byte, 0, wire.MaxFrameSize(counts))
	encodeNs = timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendCounts(buf[:0], cs, false)
		}
	})
	var f wire.Frame
	var sum uint64
	decodeNs = timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			if _, err = wire.Decode(buf, wire.DefaultMaxCounts, &f); err != nil {
				return
			}
			sum += f.Sum()
		}
	})
	if err == nil && sum == 0 {
		err = fmt.Errorf("wire probe decoded nothing")
	}
	return encodeNs, decodeNs, err
}

// jsonProbe prices windowd's per-record NDJSON parse: one
// encoding/json.Unmarshal into the handler's record shape.
func jsonProbe() (float64, error) {
	line := []byte(`{"count":2}`)
	var err error
	ns := timeLoop(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var rec struct {
				Count *int64 `json:"count"`
			}
			err = json.Unmarshal(line, &rec)
		}
	})
	return ns, err
}

// pumpLoopProbe prices the synchronisation windowd's pump performs on
// every iteration around its Step: a select with default over its
// control and drain channels, one atomic swap of the ingest counter and
// one atomic store of the owed gauge.
func pumpLoopProbe() float64 {
	ctrl, drain := make(chan struct{}), make(chan struct{})
	var ingested, gauge atomic.Int64
	var owed int64
	return timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			select {
			case <-ctrl:
			case <-drain:
			default:
			}
			owed += ingested.Swap(0)
			gauge.Store(owed)
		}
	})
}

// point is a workload's operating point: windowd's -load, -km and -m,
// with windowd's defaults for everything else.
type point struct {
	load, km, m float64
}

const (
	daemonSeed  = 1 // windowd's default -seed
	releaseSalt = 0x6a09e667f3bcc909
)

func (p point) k() float64      { return p.km * p.m }
func (p point) lambda() float64 { return p.load / p.m }

// stepper builds the engine exactly as windowd does at this point.
func (p point) stepper(col metrics.Collector) (*sim.Stepper, error) {
	sys := windowctl.System{Tau: 1, M: p.m, RhoPrime: p.load, K: p.k(), Seed: daemonSeed}
	d, err := windowctl.ParseDiscipline("controlled")
	if err != nil {
		return nil, err
	}
	sys.Discipline = d
	pol, err := sys.Policy()
	if err != nil {
		return nil, err
	}
	return sim.NewStepper(sim.Config{Policy: pol, Tau: 1, M: p.m, Lambda: p.lambda(),
		K: p.k(), Seed: daemonSeed, Collector: col})
}

// newShared builds the collector windowd scrapes, with its histogram
// shape.
func (p point) newShared() *metrics.Shared { return metrics.NewShared(1, int(p.k())+64) }

// pumpReplay re-runs windowd's pump loop in-process: absorb owed
// messages, Step, release Poisson(λ′·elapsed) of the owed ledger.  With
// chunk > 0 the ledger is refilled by chunk messages whenever the engine
// is idle (the pump parks and virtual time freezes between inputs);
// chunk == 0 keeps the ledger full (saturation).  It stops once decided
// messages reach target or the wall-time budget is spent.
type pumpReplay struct {
	steps, decided int64
	wall           time.Duration
	mallocs        uint64
}

func (p point) replay(col metrics.Collector, chunk, target int64, budget time.Duration) (pumpReplay, error) {
	st, err := p.stepper(col)
	if err != nil {
		return pumpReplay{}, err
	}
	rel := rngutil.New(daemonSeed ^ releaseSalt)
	lam := p.lambda()
	var r pumpReplay
	var owed, injected int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for r.decided < target && (r.steps&4095 != 0 || time.Since(t0) < budget) {
		if chunk == 0 {
			owed = math.MaxInt64 / 2
		} else if owed == 0 && st.Backlog() == 0 {
			owed = chunk
		}
		before := st.Now()
		if err := st.Step(); err != nil {
			return r, err
		}
		n := int64(rel.Poisson(lam * (st.Now() - before)))
		if n > owed {
			n = owed
		}
		owed -= n
		st.Inject(int(n))
		injected += n
		r.steps++
		if r.steps&255 == 0 {
			r.decided = injected - int64(st.Backlog())
		}
	}
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	return r, nil
}

// event is one recorded metrics.Collector call.
type event struct {
	kind     uint8
	accepted bool
	n        int64
	f        float64
}

const (
	evArrivals = iota
	evSlots
	evSplit
	evDiscards
	evTransmission
)

// recorder is a Collector that records the call sequence and does
// nothing else.
type recorder struct{ ev []event }

func (r *recorder) RecordArrivals(n int64) { r.ev = append(r.ev, event{kind: evArrivals, n: n}) }
func (r *recorder) RecordSlots(o metrics.SlotOutcome, n int64, t float64) {
	// The outcome rides in the count's top byte; slot counts stay far
	// below 2^56.
	r.ev = append(r.ev, event{kind: evSlots, n: n | int64(o)<<56, f: t})
}
func (r *recorder) RecordSplit()           { r.ev = append(r.ev, event{kind: evSplit}) }
func (r *recorder) RecordDiscards(n int64) { r.ev = append(r.ev, event{kind: evDiscards, n: n}) }
func (r *recorder) RecordTransmission(w float64, ok bool) {
	r.ev = append(r.ev, event{kind: evTransmission, f: w, accepted: ok})
}

// RecordEndPending is only called by Finish, which a replay never reaches.
func (r *recorder) RecordEndPending(lost, censored int64) {}

// play replays a recorded call sequence into a collector.
func play(ev []event, c metrics.Collector) {
	for _, e := range ev {
		switch e.kind {
		case evArrivals:
			c.RecordArrivals(e.n)
		case evSlots:
			c.RecordSlots(metrics.SlotOutcome(e.n>>56), e.n&(1<<56-1), e.f)
		case evSplit:
			c.RecordSplit()
		case evDiscards:
			c.RecordDiscards(e.n)
		case evTransmission:
			c.RecordTransmission(e.f, e.accepted)
		}
	}
}

// engineProbe is what the in-process replays measured at one point.
type engineProbe struct {
	nsPerStep, nsPerDecided, allocsPerDecided float64
	callsPerDecided                           float64
	slotNs, sharedNs                          float64 // collector cost per decided, over replaying into Nop
	snapshotUs                                float64
}

// probeEngine times the pump replay with the Nop collector, records the
// collector call sequence of a shorter replay, and prices that sequence
// in Nop, SlotMetrics and Shared; the scrape probe then times the
// /metrics read-out (Snapshot plus three WaitQuantile) on the filled
// Shared.
func probeEngine(p point, chunk int64) (engineProbe, error) {
	var out engineProbe
	// The first replay warms the process (page faults, queue growth) and
	// is not kept; the median of three timed replays is.
	var perStep, perDecided, allocs []float64
	for i := 0; i < 4; i++ {
		r, err := p.replay(metrics.Nop{}, chunk, 1<<20, 300*time.Millisecond)
		if err != nil {
			return out, fmt.Errorf("pump replay: %w", err)
		}
		if i > 0 {
			perStep = append(perStep, float64(r.wall.Nanoseconds())/float64(r.steps))
			perDecided = append(perDecided, float64(r.wall.Nanoseconds())/float64(r.decided))
			allocs = append(allocs, float64(r.mallocs)/float64(r.decided))
		}
	}
	out.nsPerStep, out.nsPerDecided, out.allocsPerDecided = median(perStep), median(perDecided), median(allocs)

	rec := &recorder{}
	rr, err := p.replay(rec, chunk, 1<<15, time.Minute)
	if err != nil {
		return out, fmt.Errorf("recording replay: %w", err)
	}
	out.callsPerDecided = float64(len(rec.ev)) / float64(rr.decided)
	shared := p.newShared()
	collectorNs := func(c metrics.Collector) float64 {
		return timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				play(rec.ev, c)
			}
		}) / float64(rr.decided)
	}
	base := collectorNs(metrics.Nop{})
	out.slotNs = collectorNs(metrics.NewSlotMetrics(1, int(p.k())+64)) - base
	out.sharedNs = collectorNs(shared) - base

	var sink float64
	out.snapshotUs = timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			s := shared.Snapshot()
			sink += s.Utilization
			for _, q := range []float64{0.5, 0.9, 0.99} {
				sink += shared.WaitQuantile(q)
			}
		}
	}) / 1e3
	if math.IsNaN(sink) {
		return out, fmt.Errorf("scrape probe read NaN")
	}
	return out, nil
}

// batchProbe is the researcher's path at one point: RunGlobal's own
// Poisson fill, and the analytic eq. 4.7 solver over figure 7's
// constraint grid.
type batchProbe struct {
	nsPerMsg, solveMs, ffts float64
}

func probeBatch(p point, seed uint64) (batchProbe, error) {
	var out batchProbe
	const messages = 2e5
	sys := windowctl.System{Tau: 1, M: p.m, RhoPrime: p.load, K: p.k(), Seed: seed}
	pol, err := sys.Policy()
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	rep, err := sim.RunGlobal(sim.Config{Policy: pol, Tau: 1, M: p.m, Lambda: p.lambda(),
		K: p.k(), Seed: seed, EndTime: messages / p.lambda()})
	if err != nil {
		return out, fmt.Errorf("RunGlobal: %w", err)
	}
	out.nsPerMsg = float64(time.Since(t0).Nanoseconds()) / float64(rep.Offered)

	model := queueing.ProtocolModel{Tau: 1, M: p.m, RhoPrime: p.load}
	ks := make([]float64, len(sim.DefaultKOverM))
	for i, km := range sim.DefaultKOverM {
		ks[i] = km * p.m
	}
	f0 := numerics.ConvolveFFTCount()
	t0 = time.Now()
	if _, err := model.LossGrids(ks); err != nil {
		return out, fmt.Errorf("LossGrids: %w", err)
	}
	out.solveMs = ms(time.Since(t0))
	out.ffts = float64(numerics.ConvolveFFTCount() - f0)
	return out, nil
}

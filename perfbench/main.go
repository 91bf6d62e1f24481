// Command perfbench is windowctl's end-to-end benchmark.  It spawns a
// freshly built cmd/windowd, drives it through its public surfaces (the
// TCP plane through internal/wire's client, POST /ingest, GET /metrics,
// SIGTERM, the exit status and stdout), checks that every message is
// accounted for, and prints one JSON result line.  See README.md for the
// workloads and the metric definitions; run it through run.sh, which
// builds both binaries:
//
//	bash perfbench/run.sh --workload overload --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics.  With
// --trace 1 it carries the per-layer metrics instead: the run splits
// its time between an untraced and a traced segment, then times each
// layer's public functions in-process, and prints a layer table whose
// rows add up to the traced segment's windowd CPU per decided message.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"windowctl/internal/rngutil"
)

// workload is one traffic mix.
type workload struct {
	pt    point
	chunk int64 // messages per pump wake-up for the replay (0 = saturation)
	// frameCounts is the batch counts per TCP frame; 0 means HTTP ingest.
	frameCounts int
	// oneCPU confines the generator and windowd to one CPU.  On a
	// virtual machine a request-response ping-pong between two CPUs pays
	// a vCPU wake-up on most requests, which swamps sub-millisecond
	// latencies with the host's scheduling noise.
	oneCPU bool
	drive  func(*daemon, *rngutil.Stream, time.Duration) (*liveStats, error)
}

var workloads = map[string]workload{
	"overload":    {pt: point{load: 2, km: 2, m: 25}, frameCounts: overloadCounts, drive: runOverload},
	"http-ndjson": {pt: point{load: 0.75, km: 2, m: 25}, chunk: httpRecords * (1 + httpMaxCount) / 2, oneCPU: true, drive: runHTTP},
}

// setupSpawns is how many times a run starts windowd to time set-up,
// before the load phase and again after it.
const setupSpawns = 20

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "overload | http-ndjson")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced run")
	bin := fs.String("windowd", "", "windowd binary")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -windowd, -workload overload|http-ndjson, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	b := &bench{name: *name, w: w, bin: *bin, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		res: result{Correct: true, Metrics: map[string]metricValue{}}}
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.timed()
	}
	if err == nil {
		err = b.checkMetrics()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		b.res.Correct = false
	}
	line, jerr := json.Marshal(b.res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// bench is one invocation.
type bench struct {
	name string
	w    workload
	bin  string
	seed uint64
	dur  time.Duration
	res  result
}

func (b *bench) put(name, unit string, v float64) { b.res.Metrics[name] = metricValue{v, unit} }

// checkMetrics rejects a result with a value JSON cannot carry.
func (b *bench) checkMetrics() error {
	for k, v := range b.res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v)", k, v.Value)
		}
	}
	return nil
}

// pin confines the process to one CPU when the workload asks for it
// and returns the function that undoes it.
func (b *bench) pin() (func() error, error) {
	if !b.w.oneCPU {
		return func() error { return nil }, nil
	}
	return pinToOneCPU()
}

// timed is the --trace 0 run: set-up spawns, one live segment, gates.
func (b *bench) timed() error {
	unpin, err := b.pin()
	if err != nil {
		return err
	}
	before, err := b.setup()
	if err != nil {
		return err
	}
	seg, err := b.segment(b.dur, false)
	if err != nil {
		return err
	}
	after, err := b.setup()
	if err != nil {
		return err
	}
	if err := unpin(); err != nil {
		return err
	}
	if err := b.gates(seg); err != nil {
		return err
	}
	rates := seg.rates()
	b.put("decided_per_s", "1/s", median(rates))
	b.put("cpu_ns_per_decided", "ns", seg.cpuNsPerDecided())
	b.put("clear_p50_ms", "ms", quantile(seg.st.clearMs, 0.5))
	b.put("ingest_p50_ms", "ms", quantile(seg.st.ingestMs, 0.5))
	b.put("shed_frac", "ratio", seg.shedFrac())
	b.put("peak_rss_mb", "MB", seg.exit.maxRSSMB)
	b.put("setup_s", "s", median(append(before, after...)))
	fmt.Printf("%s: %d decided in %d sub-window rates, %d clear and %d ingest samples\n",
		b.name, seg.decided, len(rates), len(seg.st.clearMs), len(seg.st.ingestMs))
	return nil
}

// setup starts and drains windowd setupSpawns times and returns the
// times from spawn until both listeners were announced.  The benchmark
// and windowd share one CPU meanwhile: across two vCPUs the announce
// pays a cross-CPU wake-up whose cost swings with the host.
func (b *bench) setup() (ready []float64, err error) {
	unpin, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	defer func() {
		if uerr := unpin(); err == nil {
			err = uerr
		}
	}()
	for i := 0; i < setupSpawns; i++ {
		d, err := startDaemon(b.bin, daemonArgs(b.w.pt))
		if err != nil {
			return nil, err
		}
		ready = append(ready, d.ready.Seconds())
		if _, err := d.stop(); err != nil {
			return nil, fmt.Errorf("set-up spawn %d: %w", i, err)
		}
	}
	return ready, nil
}

// gates runs the correctness checks that are not part of a segment.
func (b *bench) gates(seg *segment) error {
	if b.name == "overload" {
		if err := checkShed(b.w.pt, seg.shedFrac()); err != nil {
			return err
		}
	}
	return checkFigure7()
}

// segment is one live windowd run under load.
type segment struct {
	st      *liveStats
	exit    exitReport
	decided int64
	shed    int64
	mem     memStats      // windowd's runtime counters once settled (traced only)
	age     time.Duration // windowd's age at that read
	procs   int           // windowd's GOMAXPROCS (traced only)
}

func (s *segment) cpuNsPerDecided() float64 {
	return float64(s.exit.cpu.Nanoseconds()) / float64(s.decided)
}

func (s *segment) shedFrac() float64 { return float64(s.shed) / float64(s.decided) }

// rates is decided messages per second over 1 s sub-windows of the
// steady part of the load phase.
func (s *segment) rates() []float64 {
	return windowRates(s.st.samples, s.st.warm, s.st.end, time.Second)
}

// steadyEnds returns the first sample after warm-up and the last sample
// of the load phase.
func (s *segment) steadyEnds() (a, z sample) {
	for _, x := range s.st.samples {
		if a.t.IsZero() && !x.t.Before(s.st.warm) {
			a = x
		}
		if !x.t.After(s.st.end) {
			z = x
		}
	}
	return a, z
}

// segment spawns windowd, drives the workload for dur, waits until every
// acknowledged message is decided, checks the books, and SIGTERM-drains
// the daemon.  The seed stream is derived from the workload seed, so two
// segments of one run see different but reproducible inputs.
func (b *bench) segment(dur time.Duration, traced bool) (*segment, error) {
	d, err := startDaemon(b.bin, daemonArgs(b.w.pt))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.cmd.Process.Kill()
			<-d.exited
		}
	}()
	salt := uint64(0)
	if traced {
		salt = 1
	}
	st, err := b.w.drive(d, rngutil.New(rngutil.Mix64(b.seed, salt)), dur)
	if st != nil {
		b.res.Attempted += st.attempted
		b.res.Failed += st.failed
	}
	if err != nil {
		return nil, err
	}
	seg := &segment{st: st}
	final, err := settle(d, st.sent)
	if err != nil {
		return nil, err
	}
	seg.decided = final.decided()
	seg.shed = final.int("windowd_shed_total")
	if traced {
		seg.procs = d.procs
		if seg.mem, seg.age, err = d.memstats(); err != nil {
			return nil, err
		}
	}
	stopped = true
	if seg.exit, err = d.stop(); err != nil {
		return nil, err
	}
	if seg.exit.ingested != st.sent {
		return nil, fmt.Errorf("windowd drained %d ingested messages, the generator had %d acknowledged", seg.exit.ingested, st.sent)
	}
	return seg, nil
}

// settle polls /metrics until every acknowledged message is decided and
// nothing is resident (backlog and owed ledger empty), then checks the
// books on that final scrape: with resident at 0, decided + resident ==
// ingested reduces to ingested == decided == acknowledged.
func settle(d *daemon, sent int64) (scrape, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		sc, err := d.scrape()
		if err != nil {
			return sc, fmt.Errorf("settling: %w", err)
		}
		ingested := sc.int("windowd_ingested_total")
		resident := sc.int("windowd_backlog") + sc.int("windowd_owed_arrivals")
		if sc.v["windowd_conservation_ok"] != 1 {
			return sc, fmt.Errorf("windowd reports a conservation violation")
		}
		if sc.decided() == sent && resident == 0 {
			if ingested != sent {
				return sc, fmt.Errorf("windowd ingested %d messages and decided %d, the generator had %d acknowledged",
					ingested, sc.decided(), sent)
			}
			return sc, nil
		}
		if sc.decided() > sent || time.Now().After(deadline) {
			return sc, fmt.Errorf("windowd decided %d of %d acknowledged messages (resident %d, ingested %d)",
				sc.decided(), sent, resident, ingested)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// traced is the --trace 1 run.
func (b *bench) traced() error {
	half := max(b.dur/2, time.Second)
	unpin, err := b.pin()
	if err != nil {
		return err
	}
	plain, err := b.segment(half, false)
	if err != nil {
		return err
	}
	seg, err := b.segment(half, true)
	if err != nil {
		return err
	}
	if err := unpin(); err != nil {
		return err
	}
	st := seg.st

	counts := b.w.frameCounts
	if counts == 0 {
		counts = overloadCounts
	}
	enc, dec, err := wireProbe(counts)
	if err != nil {
		return err
	}
	jsonNs, err := jsonProbe()
	if err != nil {
		return err
	}
	loopNs := pumpLoopProbe()
	eng, err := probeEngine(b.w.pt, b.w.chunk)
	if err != nil {
		return err
	}
	bat, err := probeBatch(b.w.pt, b.seed)
	if err != nil {
		return err
	}
	err = b.gates(seg)
	if err != nil {
		return err
	}

	dec64 := float64(seg.decided)
	a, z := seg.steadyEnds()
	dt := z.t.Sub(a.t).Seconds()
	stepsPerDecided := float64(z.steps-a.steps) / float64(z.decided-a.decided)
	b.put("wire.encode_ns_per_frame", "ns", enc)
	b.put("wire.decode_ns_per_frame", "ns", dec)
	b.put("wire.frames_per_decided", "ratio", float64(st.frames)/dec64)
	b.put("clear.p90_ms", "ms", quantile(st.clearMs, 0.9))
	b.put("ingest.p90_ms", "ms", quantile(st.ingestMs, 0.9))
	b.put("ingest.ack_rtt_p50_ms", "ms", quantile(st.ackMs, 0.5))
	b.put("ingest.ack_rtt_p90_ms", "ms", quantile(st.ackMs, 0.9))
	b.put("ingest.refused", "count", float64(b.res.Failed))
	b.put("gen.late_p90_ms", "ms", quantile(st.lateMs, 0.9))
	b.put("http.json_ns_per_record", "ns", jsonNs)
	b.put("ledger.owed_p50", "count", quantile(st.owed, 0.5))
	b.put("ledger.underruns", "count", float64(st.underrun))
	b.put("pump.steps_per_decided", "ratio", stepsPerDecided)
	b.put("pump.steps_per_s", "1/s", float64(z.steps-a.steps)/dt)
	b.put("pump.virtual_per_wall", "ratio", (z.vnow-a.vnow)/dt)
	b.put("pump.loop_ns_per_step", "ns", loopNs)
	b.put("runtime.gc_cpu_frac", "ratio", seg.mem.GCCPUFraction)
	b.put("runtime.allocs_per_decided", "count", float64(seg.mem.Mallocs)/dec64)
	b.put("runtime.bytes_per_decided", "B", float64(seg.mem.TotalAlloc)/dec64)
	b.put("stepper.ns_per_step", "ns", eng.nsPerStep)
	b.put("stepper.ns_per_decided", "ns", eng.nsPerDecided)
	b.put("stepper.allocs_per_decided", "count", eng.allocsPerDecided)
	b.put("collector.calls_per_decided", "ratio", eng.callsPerDecided)
	b.put("collector.shared_ns_per_decided", "ns", eng.sharedNs)
	b.put("collector.slotmetrics_ns_per_decided", "ns", eng.slotNs)
	b.put("collector.shared_share", "ratio", eng.sharedNs/(eng.nsPerDecided+eng.sharedNs))
	b.put("scrape.snapshot_us", "us", eng.snapshotUs)
	b.put("scrape.rtt_p50_ms", "ms", quantile(st.scrapeMs, 0.5))
	b.put("runglobal.ns_per_msg", "ns", bat.nsPerMsg)
	b.put("analytic.solve_ms", "ms", bat.solveMs)
	b.put("numerics.ffts", "count", bat.ffts)
	b.put("trace.overhead_frac", "ratio", seg.cpuNsPerDecided()/plain.cpuNsPerDecided()-1)

	// The layer table: each row is a layer's cost per decided message,
	// from the probes and the traced segment's counts; the residual is
	// what the probes do not explain of windowd's CPU.
	cpu := seg.cpuNsPerDecided()
	decodeRow := layerRow{"ingest decode (wire.Decode)", dec * float64(st.frames) / dec64}
	if b.w.frameCounts == 0 {
		decodeRow = layerRow{"ingest decode (NDJSON records)", jsonNs * float64(st.attempted*httpRecords) / dec64}
	}
	rows := []layerRow{
		decodeRow,
		{"engine (Stepper pump replay, Nop)", eng.nsPerDecided},
		{"pump loop (select + ledger atomics)", loopNs * stepsPerDecided},
		{"collector (metrics.Shared over Nop)", eng.sharedNs},
		{"scrape read-out (Snapshot+quantiles)", eng.snapshotUs * 1e3 * float64(st.scrapes) / dec64},
		{"GC (windowd memstats)", seg.mem.GCCPUFraction * float64(seg.procs) * float64(seg.age.Nanoseconds()) / dec64},
	}
	var sum float64
	for _, r := range rows {
		sum += r.ns
	}
	rows = append(rows, layerRow{"unattributed", cpu - sum})
	b.put("layers.residual_frac", "ratio", (cpu-sum)/cpu)
	printLayers(b.name, cpu, rows)
	return nil
}

type layerRow struct {
	name string
	ns   float64
}

func printLayers(name string, cpu float64, rows []layerRow) {
	fmt.Printf("layer table, %s (traced segment): windowd cpu_ns_per_decided = %.1f ns\n", name, cpu)
	fmt.Printf("  %-40s %12s %8s\n", "layer", "ns/decided", "share")
	largest := rows[0]
	for _, r := range rows {
		fmt.Printf("  %-40s %12.1f %7.1f%%\n", r.name, r.ns, 100*r.ns/cpu)
		if r.ns > largest.ns {
			largest = r
		}
	}
	fmt.Printf("  largest: %s\n", largest.name)
}

// quantile is the q-quantile of xs by linear interpolation (NaN when xs
// is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowRates is the decided rate over consecutive w-long windows of
// [from, to], each measured between the first samples at or after its
// two ends.
func windowRates(s []sample, from, to time.Time, w time.Duration) []float64 {
	var out []float64
	i := 0
	for a := from; !a.Add(w).After(to); a = a.Add(w) {
		for i < len(s) && s[i].t.Before(a) {
			i++
		}
		j := i
		for j < len(s) && s[j].t.Before(a.Add(w)) {
			j++
		}
		if j >= len(s) {
			break
		}
		if j > i {
			out = append(out, float64(s[j].decided-s[i].decided)/s[j].t.Sub(s[i].t).Seconds())
		}
	}
	return out
}

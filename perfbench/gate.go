package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"windowctl"
	"windowctl/internal/metrics"
	"windowctl/internal/sim"
)

// shedBand is how far overload's live shed fraction may sit from the
// batch simulator's element-(4) discard fraction at the same point: the
// tolerance windowd's own TestServerSyntheticShedMatchesBatch allows.
// The live pump stamps each release inside the last slot instead of
// spreading it over the epoch it covers, which at ρ′=2, K/M=2 puts the
// live figure about 0.046 above the batch one; the band catches a
// change to the control law or the release law, and the shed_frac
// metric's own bound catches smaller drifts.
const shedBand = 0.05

// batchShed runs the batch engine at the point, at a pinned seed and
// 1e6 messages so the reference is the same on every run, and returns
// its element-(4) discard fraction among arrivals.
func batchShed(p point) (float64, error) {
	const messages, seed = 1e6, 99
	pol, err := windowctl.System{Tau: 1, M: p.m, RhoPrime: p.load, K: p.k(), Seed: seed}.Policy()
	if err != nil {
		return 0, err
	}
	col := &metrics.SlotMetrics{}
	if _, err := sim.RunGlobal(sim.Config{Policy: pol, Tau: 1, M: p.m, Lambda: p.lambda(),
		K: p.k(), Seed: seed, EndTime: messages / p.lambda(), Collector: col}); err != nil {
		return 0, fmt.Errorf("batch run: %w", err)
	}
	return col.DiscardFraction(), nil
}

// checkShed compares a live shed fraction with the batch one.
func checkShed(p point, live float64) error {
	batch, err := batchShed(p)
	if err != nil {
		return err
	}
	if math.Abs(live-batch) > shedBand {
		return fmt.Errorf("live shed fraction %.4f is %.4f from the batch discard fraction %.4f (band %.2f)",
			live, math.Abs(live-batch), batch, shedBand)
	}
	fmt.Printf("shed gate: live %.4f, batch %.4f, band %.2f\n", live, batch, shedBand)
	return nil
}

// figure7Digest is the SHA-256 of the formatted figure-7 panels below.
// The panels are a pure function of the engines and solvers, identical
// at every worker count, so any change to it is a change in behaviour.
const figure7Digest = "551fcd9ba9255d00d57bdcd8aa650f7611a9614b069fd9dd9553bff08d2c55e4"

// checkFigure7 evaluates all six figure-7 panels with the FCFS/LCFS
// baselines at a fixed seed and message count on 2 workers and compares
// the formatted output with the pinned digest.
func checkFigure7() error {
	panels, err := sim.Figure7Panels(sim.AllPanels(), sim.SimOptions{
		Baselines: true, Messages: 2000, Seed: 7, Workers: 2})
	if err != nil {
		return fmt.Errorf("figure 7: %w", err)
	}
	h := sha256.New()
	for _, p := range panels {
		h.Write([]byte(p.Format()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != figure7Digest {
		return fmt.Errorf("figure 7 panel digest %s, want %s", got, figure7Digest)
	}
	return nil
}

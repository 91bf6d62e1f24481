package sim

// Cross-engine oracle for the multi-station simulator: the shared-state
// fast path (multiState) must reproduce the per-station reference engine
// (denseState) bit for bit, at any worker count.  Fingerprints reuse the
// golden formatter, so
// "equal" means every report field equal, floats compared by their hex
// representation.

import (
	"strings"
	"testing"

	"windowctl/internal/station"
)

// engineCase builds a fresh config per run: policies can carry stateful
// common-randomness streams, so sharing one config value across runs
// would let the first run perturb the second.
type engineCase struct {
	name string
	mk   func() MultiConfig
}

func engineCases() []engineCase {
	base := func(pol string, seed uint64, stations int) MultiConfig {
		return MultiConfig{
			Config: Config{
				Policy:  goldenPolicy(pol, 31),
				Tau:     1,
				M:       25,
				Lambda:  0.6 / 25,
				K:       50,
				EndTime: 20000,
				Warmup:  2000,
				Seed:    seed,
			},
			Stations:       stations,
			VerifyLockstep: true,
		}
	}
	return []engineCase{
		{"controlled", func() MultiConfig { return base("controlled", 2718, 8) }},
		{"random", func() MultiConfig { return base("random", 2719, 8) }},
		{"fcfs", func() MultiConfig { return base("fcfs", 2720, 8) }},
		{"faults/common", func() MultiConfig {
			cfg := base("controlled", 2818, 8)
			cfg.Faults = goldenFaultMix
			return cfg
		}},
		{"arrivals/onoff", func() MultiConfig {
			cfg := base("controlled", 3318, 8)
			cfg.Arrivals = onOffArrivals(8, cfg.Lambda)
			return cfg
		}},
		{"m1000", func() MultiConfig {
			cfg := base("controlled", 3518, 1000)
			cfg.Lambda = 0.5 / 25
			cfg.EndTime = 5000
			cfg.Warmup = 500
			return cfg
		}},
	}
}

func mustFingerprint(t *testing.T, cfg MultiConfig) string {
	t.Helper()
	rep, err := RunMultiStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(rep)
}

// TestMultiSharedMatchesDense pins the fast path to the reference engine.
func TestMultiSharedMatchesDense(t *testing.T) {
	for _, c := range engineCases() {
		t.Run(c.name, func(t *testing.T) {
			shared := mustFingerprint(t, c.mk())
			dense := c.mk()
			dense.forceDense = true
			if got := mustFingerprint(t, dense); got != shared {
				t.Errorf("dense engine diverged from shared fast path:\nshared: %s\ndense:  %s", shared, got)
			}
		})
	}
}

// TestMultiWorkersBitIdentical pins both engines' reports across worker
// counts: shards only partition index space, they never reorder results.
func TestMultiWorkersBitIdentical(t *testing.T) {
	for _, c := range engineCases()[:3] {
		t.Run(c.name, func(t *testing.T) {
			for _, dense := range []bool{false, true} {
				base := c.mk()
				base.Workers = 1
				base.forceDense = dense
				want := mustFingerprint(t, base)
				for _, workers := range []int{2, 5} {
					cfg := c.mk()
					cfg.Workers = workers
					cfg.forceDense = dense
					if got := mustFingerprint(t, cfg); got != want {
						t.Errorf("dense=%v workers=%d: report diverged:\nwant %s\ngot  %s", dense, workers, want, got)
					}
				}
			}
		})
	}
}

// TestMultiLockstepCatchesInjectedDesync corrupts one verified state
// machine's feedback mid-run and requires the sampled lockstep check to
// fail the run — on both engines.  This is the probe that keeps the
// sampled check honest: cheaper than the old every-slot/every-station
// scan, but still a real detector.
func TestMultiLockstepCatchesInjectedDesync(t *testing.T) {
	for _, dense := range []struct {
		name  string
		force bool
		every int
	}{
		{"shared", false, 0}, // default period; process-end compare catches it
		{"dense", true, 1},
	} {
		t.Run(dense.name, func(t *testing.T) {
			cfg := engineCases()[0].mk()
			cfg.forceDense = dense.force
			cfg.LockstepEvery = dense.every
			cfg.lockstepFaultAt = 97
			_, err := RunMultiStation(cfg)
			if err == nil || !strings.Contains(err.Error(), "lockstep") {
				t.Fatalf("injected desync not detected; err = %v", err)
			}
		})
	}
}

// TestMultiLockstepCleanRun double-checks the detector's false-positive
// rate: with no injected fault the sampled verification must stay silent
// even with an aggressive period and a full-population sample.
func TestMultiLockstepCleanRun(t *testing.T) {
	cfg := engineCases()[1].mk() // random policy: common-randomness forks
	cfg.LockstepEvery = 1
	cfg.LockstepSample = cfg.Stations
	if _, err := RunMultiStation(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMultiSharedRejectsNilArrival preserves the legacy factory contract.
func TestMultiSharedRejectsNilArrival(t *testing.T) {
	cfg := engineCases()[0].mk()
	cfg.Arrivals = func(int) station.ArrivalProcess { return nil }
	if _, err := RunMultiStation(cfg); err == nil {
		t.Fatal("nil arrival process accepted")
	}
}

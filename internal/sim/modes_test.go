package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// Execution-mode tests: the adaptive controller must be bit-identical to
// exact execution on every configuration (it only chooses which driver
// advances the clock), and sampled mode must be a deterministic,
// well-formed estimator.

// runAdaptiveExact runs the same configuration in exact and adaptive mode
// and fails the test on any difference between the two results.
func runAdaptiveExact(t *testing.T, name string, opts Options, sources func() []trace.Reader) Result {
	t.Helper()
	opts.Sources = sources()
	opts.Mode = ModeExact
	exact, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s: exact run: %v", name, err)
	}
	opts.Sources = sources()
	opts.Mode = ModeAdaptive
	adaptive, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s: adaptive run: %v", name, err)
	}
	if !reflect.DeepEqual(adaptive, exact) {
		t.Errorf("%s: adaptive diverged from exact\nexact:    %+v\nadaptive: %+v", name, exact, adaptive)
	}
	return adaptive
}

// TestAdaptiveEquivalence pins adaptive == exact bit-identically on the
// four figure configurations plus the i1 (finite shared L2 + DRAM) and c1
// (CMP) machines, and on controller switch-boundary machines: a window
// straddling calendar far-overflow drains (L2 latency beyond the wheel
// window), tiny MSHR pools so mode switches land mid-fill, and a CMP
// whose cores would disagree on the preferred mode (one stalling, one
// busy) — the controller is per-run, so lockstep stays deterministic.
func TestAdaptiveEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		machine config.Machine
		threads int
	}{
		// The four figure configs.
		{"fig/1T-L2_16", config.Figure2(1), 1},
		{"fig/1T-L2_256", config.Figure2(1).WithL2Latency(256), 1},
		{"fig/4T-L2_16", config.Figure2(4), 4},
		{"fig/4T-L2_256", config.Figure2(4).WithL2Latency(256), 4},
		// i1-style machine: finite shared L2 over DRAM.
		{"i1", config.Figure2(4).WithHierarchy(64, config.SharedL2(64<<10, 8)), 4},
		// c1-style machine: 2 cores × 2 contexts over a shared L2.
		{"c1", config.Figure2(2).WithCores(2).WithHierarchy(64, config.SharedL2(256<<10, 8)), 4},
		// Far-overflow straddle: every refill is scheduled beyond the
		// calendar wheel, so controller windows end inside far-overflow
		// drains.
		{"far-window", config.Figure2(2).WithL2Latency(6000), 2},
		// Mid-MSHR-fill switches: a 2-entry L2 MSHR pool keeps fills
		// in flight almost continuously, so mode switches land mid-fill.
		{"mshr-fill", func() config.Machine {
			l2 := config.SharedL2(128<<10, 2)
			l2.MSHRs = 2
			return config.Figure2(4).WithHierarchy(100, l2)
		}(), 4},
		// Disagreeing CMP cores: core 0 runs a long-latency-bound thread
		// mix while core 1 runs the same — but private-state divergence
		// makes their instantaneous skip rates differ; the per-run
		// controller must still keep the lockstep fabric deterministic.
		{"cmp-disagree", config.Figure2(1).WithCores(2).WithHierarchy(200, config.SharedL2(64<<10, 1)), 2},
	}
	for _, c := range cases {
		opts := Options{
			Machine:      c.machine,
			WarmupInsts:  shortWarmup * int64(c.threads),
			MeasureInsts: shortMeasure * int64(c.threads),
		}
		threads := c.threads
		runAdaptiveExact(t, c.name, opts, func() []trace.Reader {
			return mixSources(t, threads, 0)
		})
	}
}

// TestAdaptiveEquivalenceAcrossWindowScales shrinks the measurement so the
// run ends inside the very first probe window, straddles exactly one
// boundary, and spans many boundaries — the controller's decision points
// must never perturb results.
func TestAdaptiveEquivalenceAcrossWindowScales(t *testing.T) {
	for _, measure := range []int64{500, 3_000, 70_000, 300_000} {
		opts := Options{
			Machine:      config.Figure2(2).WithL2Latency(256),
			WarmupInsts:  1_000,
			MeasureInsts: measure,
		}
		runAdaptiveExact(t, "window-scale", opts, func() []trace.Reader {
			return mixSources(t, 2, 0)
		})
	}
}

// TestSampledReportWellFormed checks the sampled-mode contract: the
// report carries a Sampled summary with measured units, a positive IPC
// estimate, and a graduated count bounded by the detailed duty cycle.
func TestSampledReportWellFormed(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Machine:      config.Figure2(1),
		Sources:      mixSources(t, 1, 0),
		WarmupInsts:  2_000,
		MeasureInsts: 400_000,
		Mode:         ModeSampled,
		Sampling:     Sampling{PeriodInsts: 20_000, UnitInsts: 1_000, WarmupInsts: 2_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.Sampled
	if s == nil {
		t.Fatal("sampled run carried no Sampled summary")
	}
	if s.Units < 2 {
		t.Fatalf("expected several measured units, got %d", s.Units)
	}
	if s.Mean <= 0 || s.CI < 0 {
		t.Fatalf("degenerate estimate: mean=%v ci=%v", s.Mean, s.CI)
	}
	if s.WarpedInsts <= 0 {
		t.Fatalf("expected warped instructions between units, got %d", s.WarpedInsts)
	}
	// The aggregated collector must hold only the measured units' cycles —
	// far fewer instructions than the budget the schedule covered.
	if res.Report.Graduated <= 0 || res.Report.Graduated >= 400_000/2 {
		t.Fatalf("measured-unit graduated count out of range: %d", res.Report.Graduated)
	}
}

// TestSampledByteStableAcrossGOMAXPROCS runs the same sampled simulation
// under GOMAXPROCS=1 and 4 and requires byte-identical JSON reports: the
// estimator must not depend on scheduler parallelism in any way.
func TestSampledByteStableAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Run(context.Background(), Options{
			Machine:      config.Figure2(4),
			Sources:      mixSources(t, 4, 7),
			WarmupInsts:  2_000,
			MeasureInsts: 300_000,
			Mode:         ModeSampled,
			Sampling:     Sampling{PeriodInsts: 29_000, UnitInsts: 1_000, WarmupInsts: 2_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	four := run(4)
	if string(one) != string(four) {
		t.Errorf("sampled report differs across GOMAXPROCS:\n1: %s\n4: %s", one, four)
	}
}

// TestSampledDeterministicAcrossRuns runs the same sampled simulation
// twice and requires identical results.
func TestSampledDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		res, err := Run(context.Background(), Options{
			Machine:      config.Figure2(2).WithL2Latency(256),
			Sources:      mixSources(t, 2, 3),
			WarmupInsts:  2_000,
			MeasureInsts: 250_000,
			Mode:         ModeSampled,
			Sampling:     Sampling{PeriodInsts: 23_000, UnitInsts: 1_000, WarmupInsts: 2_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sampled runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestModeValidation covers the mode/sampling front-door errors.
func TestModeValidation(t *testing.T) {
	base := func() Options {
		return Options{
			Machine:      config.Figure2(1),
			Sources:      mixSources(t, 1, 0),
			MeasureInsts: 10_000,
		}
	}

	bad := base()
	bad.Mode = "turbo"
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("unknown mode accepted")
	}

	noBudget := base()
	noBudget.Mode = ModeSampled
	noBudget.MeasureInsts = 0
	if _, err := Run(context.Background(), noBudget); err == nil {
		t.Error("sampled mode without an instruction budget accepted")
	}

	overlong := base()
	overlong.Mode = ModeSampled
	overlong.Sampling = Sampling{PeriodInsts: 1_000, UnitInsts: 900, WarmupInsts: 200}
	if _, err := Run(context.Background(), overlong); err == nil {
		t.Error("unit+warmup exceeding the period accepted")
	}

	negative := base()
	negative.Mode = ModeSampled
	negative.Sampling = Sampling{PeriodInsts: -5}
	if _, err := Run(context.Background(), negative); err == nil {
		t.Error("negative sampling period accepted")
	}

	// "exact" must behave as the zero mode, not an unknown one.
	spelled := base()
	spelled.Mode = "exact"
	if _, err := Run(context.Background(), spelled); err != nil {
		t.Errorf("spelled-out exact mode rejected: %v", err)
	}
}

// stuckDrain is a machine whose pipeline drain always gives up.
type stuckDrain struct {
	machine
	warps int
}

func (m *stuckDrain) DrainPipeline() bool { return false }

func (m *stuckDrain) Warp(n int64) int64 {
	m.warps++
	return m.machine.Warp(n)
}

// TestSampledFailedDrainIsAnError: a drain that hits its cycle guard
// leaves a live pipeline, which the functional warp must never run on.
// The sampled driver reports it instead of warping.
func TestSampledFailedDrainIsAnError(t *testing.T) {
	opts := Options{
		Machine:      config.Figure2(1),
		Sources:      mixSources(t, 1, 0),
		WarmupInsts:  2_000,
		MeasureInsts: 400_000,
		Mode:         ModeSampled,
		Sampling:     Sampling{PeriodInsts: 20_000, UnitInsts: 1_000, WarmupInsts: 2_000},
	}
	m, err := build(opts.Machine, opts.Sources)
	if err != nil {
		t.Fatal(err)
	}
	stuck := &stuckDrain{machine: m}
	_, err = newRunner(context.Background(), opts, ModeSampled, stuck).runSampled()
	if err == nil || !strings.Contains(err.Error(), "did not drain") {
		t.Fatalf("failed drain: err = %v, want a drain error", err)
	}
	if stuck.warps != 0 {
		t.Fatalf("warped %d times on an undrained pipeline", stuck.warps)
	}
}

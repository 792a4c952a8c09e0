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

// Execution-mode tests: sampled mode must be a deterministic,
// well-formed estimator whose detailed phases are as exact as a detailed
// run's, and the mode front door must reject what it cannot run.

// TestSampledSteppedEquivalence: the sampled schedule's detailed phases
// run on the same driver as exact runs, so stepping them cycle by cycle
// must leave every unit — and with it the estimate and its CI — bit-for-
// bit unchanged, on a flat machine, a long-latency one and a CMP.
func TestSampledSteppedEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		machine config.Machine
	}{
		{"1T-L2_16", config.Figure2(1)},
		{"4T-L2_256", config.Figure2(4).WithL2Latency(256)},
		{"cmp2x2/shared", config.Figure2(2).WithCores(2).WithHierarchy(64, config.SharedL2(256<<10, 8))},
	}
	for _, c := range cases {
		n := c.machine.TotalContexts()
		opts := Options{
			Machine:      c.machine,
			WarmupInsts:  shortWarmup * int64(n),
			MeasureInsts: 60_000 * int64(n),
			Mode:         ModeSampled,
			Sampling:     Sampling{PeriodInsts: 9_000, UnitInsts: 1_000, WarmupInsts: 2_000},
		}
		res := runBoth(t, c.name, opts, func() []trace.Reader { return mixSources(t, n, 5) })
		if s := res.Report.Sampled; s == nil || s.Units < 2 {
			t.Fatalf("%s: expected several measured units, got %+v", c.name, s)
		}
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
	_, err = newRunner(context.Background(), opts, stuck).runSampled()
	if err == nil || !strings.Contains(err.Error(), "did not drain") {
		t.Fatalf("failed drain: err = %v, want a drain error", err)
	}
	if stuck.warps != 0 {
		t.Fatalf("warped %d times on an undrained pipeline", stuck.warps)
	}
}

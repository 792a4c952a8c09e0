package daesim

import (
	"context"
	"strings"
	"testing"
)

func quickOpts() RunOpts {
	return RunOpts{WarmupInsts: 10_000, MeasureInsts: 50_000}
}

// runRequest executes a Request once, uncached: the Engine's validation
// and simulation without its cache, deduplication or worker semaphore.
func runRequest(req Request) (Report, error) {
	if err := req.Validate(); err != nil {
		return Report{}, err
	}
	return req.Normalized().job().Execute(context.Background(), nil, 0)
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 10 {
		t.Fatalf("%d benchmarks, want the 10 SPEC FP95 models", len(names))
	}
	for _, n := range names {
		if _, err := BenchmarkByName(n); err != nil {
			t.Errorf("BenchmarkByName(%q): %v", n, err)
		}
	}
	if _, err := BenchmarkByName("quake3"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunBenchmarkQuick(t *testing.T) {
	rep, err := runRequest(BenchmarkRequest("tomcatv", Figure2(1), quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPC() <= 0.5 || rep.IPC() > 8 {
		t.Fatalf("implausible IPC %.2f", rep.IPC())
	}
	if rep.Threads != 1 || !rep.Decoupled || rep.L2Latency != 16 {
		t.Fatalf("report identity: %+v", rep.Threads)
	}
}

func TestRunMixQuick(t *testing.T) {
	rep, err := runRequest(MixRequest(Figure2(2), quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graduated < 50_000 { // MeasureInsts is a machine-wide total
		t.Fatalf("measured %d instructions", rep.Graduated)
	}
	if !strings.Contains(rep.String(), "threads=2") {
		t.Error("report rendering broken")
	}
}

func TestDecouplingWinsOnMix(t *testing.T) {
	// The paper's headline: at a given thread count, decoupling beats the
	// non-decoupled machine, and the gap widens with L2 latency.
	m := Figure2(2).WithL2Latency(64)
	dec, err := runRequest(MixRequest(m, quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	non, err := runRequest(MixRequest(m.NonDecoupled(), quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.IPC() <= non.IPC() {
		t.Fatalf("decoupled %.2f not above non-decoupled %.2f at L2=64", dec.IPC(), non.IPC())
	}
	if dec.Perceived().Mean() >= non.Perceived().Mean() {
		t.Fatalf("decoupled perceived %.1f not below non-decoupled %.1f",
			dec.Perceived().Mean(), non.Perceived().Mean())
	}
}

func TestRunCustomBenchmark(t *testing.T) {
	b, err := BenchmarkByName("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	b.Name = "mgrid-variant"
	b.Kernels[0].FPChains = 2 // serial chains: should lower IPC
	variant, err := runRequest(CustomRequest(b, Figure2(1), quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := runRequest(BenchmarkRequest("mgrid", Figure2(1), quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if variant.IPC() >= orig.IPC() {
		t.Fatalf("serial-chain variant %.2f not slower than original %.2f", variant.IPC(), orig.IPC())
	}
}

func TestRunCustomRejectsInvalid(t *testing.T) {
	var b Benchmark // zero value: invalid
	if _, err := runRequest(CustomRequest(b, Figure2(1), quickOpts())); err == nil {
		t.Fatal("invalid benchmark accepted")
	}
}

func TestSeedsPerturbRuns(t *testing.T) {
	a, err := runRequest(BenchmarkRequest("fpppp", Figure2(1), RunOpts{WarmupInsts: 5_000, MeasureInsts: 30_000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRequest(BenchmarkRequest("fpppp", Figure2(1), RunOpts{WarmupInsts: 5_000, MeasureInsts: 30_000, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	// fpppp's data-dependent branches make different seeds measurably
	// different, while the same seed is bit-identical.
	c, err := runRequest(BenchmarkRequest("fpppp", Figure2(1), RunOpts{WarmupInsts: 5_000, MeasureInsts: 30_000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != c.Cycles {
		t.Fatal("same seed produced different runs")
	}
	if a.Cycles == b.Cycles && a.Mispredicts == b.Mispredicts {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSection2Preset(t *testing.T) {
	m := Section2().WithL2Latency(128)
	rep, err := runRequest(BenchmarkRequest("applu", m, quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.L2Latency != 128 {
		t.Fatalf("L2 latency not applied: %d", rep.L2Latency)
	}
	// The 4-wide Section-2 machine cannot exceed 4 IPC.
	if rep.IPC() > 4.01 {
		t.Fatalf("Section-2 IPC %.2f exceeds issue width", rep.IPC())
	}
}

func TestFetchPolicyKnob(t *testing.T) {
	m := Figure2(3)
	m.FetchPolicy = FetchRoundRobin
	rep, err := runRequest(MixRequest(m, quickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPC() <= 0 {
		t.Fatal("round-robin fetch run failed")
	}
}

func TestCycleCapSurfacesError(t *testing.T) {
	m := Figure2(1)
	_, err := runRequest(MixRequest(m, RunOpts{MeasureInsts: 1 << 40, MaxCycles: 1_000}))
	if err == nil {
		t.Fatal("cycle cap not reported")
	}
	if !strings.Contains(err.Error(), "cycle cap") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBudgetConvergence(t *testing.T) {
	// Methodology check: doubling the measurement budget moves the mix
	// IPC by only a few percent — the default windows sample steady
	// state, not a transient.
	small, err := runRequest(MixRequest(Figure2(2), RunOpts{WarmupInsts: 100_000, MeasureInsts: 600_000}))
	if err != nil {
		t.Fatal(err)
	}
	large, err := runRequest(MixRequest(Figure2(2), RunOpts{WarmupInsts: 100_000, MeasureInsts: 1_200_000}))
	if err != nil {
		t.Fatal(err)
	}
	ratio := small.IPC() / large.IPC()
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("IPC not converged: %.3f (600k) vs %.3f (1.2M)", small.IPC(), large.IPC())
	}
}

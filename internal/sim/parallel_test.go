package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
)

// The parallel arm of the golden equivalence suite: epoch-parallel CMP
// execution (Options.Parallel, DESIGN.md §12) must produce results
// bit-identical to the serial lockstep path on every machine shape it
// engages — flat and private-chain hierarchies — in every execution
// mode, and shared-chain machines, which decline it, must match too.
// These tests exercise real goroutine sharing (run them under -race;
// CI does), unlike the single-goroutine lockstep suite.

// runParallelBoth runs the same configuration serially and with
// Parallel workers and fails the test on any difference.
func runParallelBoth(t *testing.T, name string, opts Options, par int, sources func() []trace.Reader) Result {
	t.Helper()
	opts.Sources = sources()
	opts.Parallel = 0
	serial, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s: serial run: %v", name, err)
	}
	opts.Sources = sources()
	opts.Parallel = par
	parallel, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s: parallel run: %v", name, err)
	}
	if !reflect.DeepEqual(parallel, serial) {
		t.Errorf("%s: parallel diverged from serial\nserial:   %+v\nparallel: %+v", name, serial, parallel)
	}
	return parallel
}

// parallelCases is one machine per epoch-relevant shape: the flat model
// and the private-chain ablation (chains advance inside the worker
// goroutines), which run in parallel, and shared chains — including a
// contended small-and-narrow L2 and a tiny-MSHR file whose rejections
// make cores retry every cycle — which stay serial.
func parallelCases() []struct {
	name    string
	machine config.Machine
} {
	return []struct {
		name    string
		machine config.Machine
	}{
		{"flat2x2", config.Figure2(2).WithCores(2)},
		{"shared2x2", config.Figure2(2).WithCores(2).
			WithHierarchy(64, config.SharedL2(256<<10, 8))},
		{"shared4x1/contended", config.Figure2(1).WithCores(4).
			WithHierarchy(64, config.SharedL2(64<<10, 1))},
		{"shared4x1/tiny-mshrs", func() config.Machine {
			l2 := config.SharedL2(128<<10, 2)
			l2.MSHRs = 2
			return config.Figure2(1).WithCores(4).WithHierarchy(100, l2)
		}()},
		{"private2x1", config.Figure2(1).WithCores(2).
			WithHierarchy(64, config.SharedL2(64<<10, 8)).WithPrivateHierarchy()},
	}
}

func TestParallelEquivalenceCMP(t *testing.T) {
	arms := []struct {
		name string
		mode Mode
		// stepRef also checks the parallel result against a serial
		// cycle-by-cycle (Stepped) run of the same configuration.
		stepRef bool
	}{
		{"exact", ModeExact, false},
		// "adaptive" is the public alias of exact (Request.Normalized
		// folds it), so its arm runs exact mode and pins what the alias
		// promises: whichever driver advances the clock, the result is
		// the exact one — parallel fast-forward against serial Tick.
		{"adaptive", ModeExact, true},
		{"sampled", ModeSampled, false},
	}
	for _, arm := range arms {
		arm := arm
		for _, tc := range parallelCases() {
			tc := tc
			t.Run(arm.name+"/"+tc.name, func(t *testing.T) {
				n := tc.machine.TotalContexts()
				opts := Options{
					Machine:               tc.machine,
					WarmupInsts:           shortWarmup * int64(n),
					MeasureInsts:          shortMeasure * int64(n),
					Mode:                  arm.mode,
					DisjointAddressSpaces: true,
				}
				if arm.mode == ModeSampled {
					opts.Sampling = Sampling{PeriodInsts: 5_000, UnitInsts: 500, WarmupInsts: 1_000}
					opts.MeasureInsts *= 4
				}
				sources := func() []trace.Reader { return mixSources(t, n, 13) }
				parallel := runParallelBoth(t, tc.name, opts, 4, sources)
				if !arm.stepRef {
					return
				}
				opts.Sources = sources()
				opts.Stepped = true
				stepped, err := Run(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s: stepped run: %v", tc.name, err)
				}
				if !reflect.DeepEqual(parallel, stepped) {
					t.Errorf("%s: parallel fast-forward diverged from stepping\nstepped:  %+v\nparallel: %+v", tc.name, stepped, parallel)
				}
			})
		}
	}
}

// TestParallelWorkerCounts: the worker-pool size must never leak into
// results — 2, 3 and 8 workers (more than cores) all match serial.
func TestParallelWorkerCounts(t *testing.T) {
	m := config.Figure2(2).WithCores(4).
		WithHierarchy(64, config.SharedL2(128<<10, 4)).WithPrivateHierarchy()
	n := m.TotalContexts()
	opts := Options{
		Machine:               m,
		WarmupInsts:           shortWarmup * int64(n),
		MeasureInsts:          shortMeasure * int64(n),
		DisjointAddressSpaces: true,
	}
	for _, par := range []int{2, 3, 8} {
		runParallelBoth(t, "workers", opts, par, func() []trace.Reader {
			return mixSources(t, n, 5)
		})
	}
}

// TestParallelMaxCyclesInsideRun pins the cycle cap against epoch
// horizons: serial and parallel must stop on exactly the same cycle
// with the same accounting when the cap lands mid-window.
func TestParallelMaxCyclesInsideRun(t *testing.T) {
	m := config.Figure2(1).WithCores(2).
		WithHierarchy(64, config.SharedL2(256<<10, 8)).WithPrivateHierarchy()
	for _, maxCycles := range []int64{500, 3_333} {
		opts := Options{
			Machine:               m,
			WarmupInsts:           0,
			MeasureInsts:          1 << 50, // unreachable: the cap decides
			MaxCycles:             maxCycles,
			DisjointAddressSpaces: true,
		}
		res := runParallelBoth(t, "maxcycles", opts, 2, func() []trace.Reader {
			return mixSources(t, m.TotalContexts(), 3)
		})
		if res.Completed {
			t.Fatalf("maxCycles=%d: run unexpectedly completed", maxCycles)
		}
		if res.TotalCycles > maxCycles {
			t.Fatalf("maxCycles=%d: stopped at %d", maxCycles, res.TotalCycles)
		}
	}
}

// TestParallelIneligibleFallsBack: configurations the epoch runner must
// decline — non-disjoint address spaces, a single core, stepped mode, a
// shared chain — still run (serially) and still match their serial
// twins.
func TestParallelIneligibleFallsBack(t *testing.T) {
	cmp := config.Figure2(2).WithCores(2).
		WithHierarchy(64, config.SharedL2(256<<10, 8)).WithPrivateHierarchy()
	cases := []struct {
		name string
		m    config.Machine
		mut  func(*Options)
	}{
		{"non-disjoint", cmp, func(o *Options) { o.DisjointAddressSpaces = false }},
		{"single-core", config.Figure2(2), func(o *Options) {}},
		{"stepped", cmp, func(o *Options) { o.Stepped = true }},
		{"shared-chain", config.Figure2(2).WithCores(2).
			WithHierarchy(64, config.SharedL2(256<<10, 8)), func(o *Options) {}},
	}
	for _, tc := range cases {
		o := Options{DisjointAddressSpaces: true}
		tc.mut(&o)
		if CanParallelize(tc.m, o.DisjointAddressSpaces, o.Stepped) {
			t.Errorf("%s: CanParallelize accepted an ineligible run", tc.name)
		}
	}
	if !CanParallelize(cmp, true, false) {
		t.Error("CanParallelize declined a private-L2 CMP")
	}
	if !CanParallelize(config.Figure2(2).WithCores(2), true, false) {
		t.Error("CanParallelize declined a flat CMP")
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := tc.m.TotalContexts()
			opts := Options{
				Machine:               tc.m,
				WarmupInsts:           shortWarmup * int64(n),
				MeasureInsts:          shortMeasure * int64(n),
				DisjointAddressSpaces: true,
			}
			tc.mut(&opts)
			runParallelBoth(t, tc.name, opts, 4, func() []trace.Reader {
				return mixSources(t, n, 9)
			})
		})
	}
}

// TestParallelCancellation: cancelling the context mid-epoch aborts a
// parallel run promptly with the context's error — the coordinator
// waits on the context alongside its workers, not just between epochs
// (an epoch can span millions of cycles, seconds of host time).
func TestParallelCancellation(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    config.Machine
	}{
		{"private", config.Figure2(2).WithCores(4).
			WithHierarchy(64, config.SharedL2(256<<10, 8)).WithPrivateHierarchy()},
		{"flat", config.Figure2(2).WithCores(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(100*time.Millisecond, cancel)
			defer timer.Stop()
			start := time.Now()
			_, err := Run(ctx, Options{
				Machine:               tc.m,
				Sources:               mixSources(t, tc.m.TotalContexts(), 1),
				WarmupInsts:           0,
				MeasureInsts:          1 << 40,
				DisjointAddressSpaces: true,
				Parallel:              4,
			})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("cancellation took %v; the run did not abort mid-epoch", took)
			}
		})
	}
}

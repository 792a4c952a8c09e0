package main

import (
	"fmt"
	"time"

	daesim "repro"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The interactive phase is the dae-sim -cores N -parallel N user: one
// fresh request at a time through Engine.Run on an Engine with Workers =
// Parallel = nproc. Requests rotate through three classes in a seeded
// order, each with a fresh seed, so every request simulates from live
// generator streams:
//
//   - shared: 4 cores × 2 contexts over a 256 KiB 8-way shared L2, the
//     class the epoch coordinator has to synchronize most;
//   - private: the same machine with a private L2 per core, where the
//     epoch-parallel cores rarely meet;
//   - sampled: Figure 2 with 4 threads in SMARTS sampled mode over a
//     long budget, which runs the functional-warm path and the adaptive
//     controller.
const (
	interWarmup        = 10_000
	interMeasure       = 30_000
	interSampledBudget = 1_000_000
	// interMinRounds is the phase's minimum size (see phase); each round
	// makes one request of every class.
	interMinRounds = 10
	// interTailCount is the sample count a class's tail is chosen at:
	// p(1-10/interTailCount) = p75 (see tailQuantile).
	interTailCount = 40
)

// interClass is one interactive request class.
type interClass struct {
	name string
	req  func(seed uint64) daesim.Request
}

var interClasses = []interClass{
	{"shared", func(seed uint64) daesim.Request {
		return daesim.MixRequest(cmpMachine(), daesim.RunOpts{
			WarmupInsts: interWarmup, MeasureInsts: interMeasure, Seed: seed})
	}},
	{"private", func(seed uint64) daesim.Request {
		return daesim.MixRequest(cmpMachine().WithPrivateHierarchy(), daesim.RunOpts{
			WarmupInsts: interWarmup, MeasureInsts: interMeasure, Seed: seed})
	}},
	{"sampled", func(seed uint64) daesim.Request {
		r := daesim.MixRequest(daesim.Figure2(4), daesim.RunOpts{
			WarmupInsts: interWarmup, MeasureInsts: interSampledBudget, Seed: seed})
		r.Budget.Mode = daesim.ModeSampled
		return r.Normalized()
	}},
}

// cmpMachine is the 4-core, 2-context CMP over a 256 KiB 8-way shared L2
// that dae-sim -cores 4 -threads 2 -l2size 262144 builds.
func cmpMachine() daesim.Machine {
	return daesim.Figure2(2).WithCores(4).WithHierarchy(64, daesim.SharedL2(256<<10, 8))
}

// interRun is one interactive phase in progress; a unit is one round.
type interRun struct {
	b     *bench
	eng   *daesim.Engine
	lat   [][]float64
	insts int64
}

// interactivePhase sets the phase up: the Engine a dae-sim user builds.
func (b *bench) interactivePhase() (stepper, error) {
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc, Parallel: b.nproc})
	if err != nil {
		return nil, err
	}
	return &interRun{b: b, eng: eng, lat: make([][]float64, len(interClasses))}, nil
}

// step makes one round: one request of every class, in a seeded order,
// each with a fresh seed.
func (r *interRun) step() error {
	b := r.b
	rng := b.rng("interactive")
	for _, c := range rng.Perm(len(interClasses)) {
		req := interClasses[c].req(rng.Uint64N(1<<32) + 1)
		req.Label = "perfbench " + interClasses[c].name
		sp := b.tr.begin("engine.Run", 0, interClasses[c].name)
		t0 := time.Now()
		rep, err := r.eng.Run(b.ctx, req)
		d := time.Since(t0)
		b.tr.end(sp)
		if err != nil {
			b.gate.fail(req.Label, err)
			continue
		}
		if b.checked(req.Label, req.Hash(), rep) {
			r.lat[c] = append(r.lat[c], float64(d)/1e6)
			r.insts += rep.Graduated + req.Budget.WarmupInsts
		}
	}
	return nil
}

func (r *interRun) result() phaseResult {
	res := phaseResult{e2e: make(map[string]metric), insts: r.insts}
	var sum float64
	for i, c := range interClasses {
		r.b.latencies(res.e2e, c.name, r.lat[i], interTailCount)
		sum += median(r.lat[i])
	}
	res.headline = sum / float64(len(interClasses))
	return res
}

func (r *interRun) close() {}

// jobOf maps a request to the runner job Engine.Run executes for it, so
// layers below the Engine can be timed standalone. The mapping is
// checked: the job must hash to the request's hash.
func jobOf(req daesim.Request) (runner.Job, error) {
	req = req.Normalized()
	j := runner.Job{
		Key:     req.Label,
		Machine: req.Machine,
		Workload: runner.Workload{
			Kind:       runner.WorkloadKind(req.Workload.Kind),
			Bench:      req.Workload.Bench,
			SegmentLen: req.Workload.SegmentLen,
			Seed:       req.Workload.Seed,
		},
		Budget: runner.Budget{
			WarmupInsts:  req.Budget.WarmupInsts,
			MeasureInsts: req.Budget.MeasureInsts,
			MaxCycles:    req.Budget.MaxCycles,
			Mode:         sim.Mode(req.Budget.Mode),
		},
	}
	if t := req.Workload.Trace; t != nil {
		j.Workload.Trace = &runner.TraceRef{Path: t.Path, Format: t.Format}
	}
	if s := req.Budget.Sampling; s != nil {
		j.Budget.Sampling = &sim.Sampling{PeriodInsts: s.PeriodInsts, UnitInsts: s.UnitInsts, WarmupInsts: s.WarmupInsts}
	}
	if j.Hash() != req.Hash() {
		return runner.Job{}, fmt.Errorf("job for %q hashes apart from its request", req.Label)
	}
	return j, nil
}

package sim

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// machine is the driver's view of a simulated processor — a single Core
// or a lockstep CMP behind one interface, so every execution mode runs
// the same loop over either. Window boundaries are in aggregate graduated
// instructions across all cores (the budget is for the machine, not per
// core), matching how runner.Job provisions WarmupPerThread ×
// TotalContexts.
type machine interface {
	// Tick advances one cycle.
	Tick()
	// Step advances one cycle, then fast-forwards over a provably idle
	// stretch (clamped to horizon) when the cycle made no progress.
	Step(horizon int64)
	// Now is absolute simulated time.
	Now() int64
	// Cycles counts cycles in the current statistics window.
	Cycles() int64
	// Graduated counts instructions retired in the current window.
	Graduated() int64
	// Done reports whether all sources drained and pipelines emptied.
	Done() bool
	// ResetStats zeroes the statistics window; machine state (caches,
	// queues, in-flight instructions) carries over.
	ResetStats()
	// Report snapshots the current window's statistics.
	Report() stats.Report
	// DrainPipeline runs the machine to a clean architectural boundary
	// (empty pipelines, quiescent memory) with fetch frozen.
	DrainPipeline() bool
	// Warp advances architectural state by up to n instructions with no
	// timing, returning the count consumed (short only when sources dry).
	Warp(n int64) int64
}

// build constructs the machine for a configuration: a lockstep CMP when
// more than one core is configured, a bare Core otherwise. The
// single-core path is kept distinct so the default machine's results
// stay byte-identical to the pre-CMP tree.
func build(mc config.Machine, sources []trace.Reader) (machine, error) {
	if mc.Effective().CoreCount() > 1 {
		p, err := core.NewCMP(mc, sources)
		if err != nil {
			return nil, err
		}
		return cmpMachine{p}, nil
	}
	c, err := core.New(mc, sources)
	if err != nil {
		return nil, err
	}
	return coreMachine{c}, nil
}

// coreMachine adapts a single core.Core.
type coreMachine struct{ c *core.Core }

func (m coreMachine) Tick()               { m.c.Tick() }
func (m coreMachine) Step(horizon int64)  { m.c.Step(horizon) }
func (m coreMachine) Now() int64          { return m.c.Now() }
func (m coreMachine) Cycles() int64       { return m.c.Collector().Cycles }
func (m coreMachine) Graduated() int64    { return m.c.Collector().Graduated }
func (m coreMachine) Done() bool          { return m.c.Done() }
func (m coreMachine) DrainPipeline() bool { return m.c.DrainPipeline() }
func (m coreMachine) Warp(n int64) int64  { return m.c.Warp(n) }

func (m coreMachine) ResetStats() {
	m.c.Collector().Reset()
	m.c.Mem().ResetStats()
}

func (m coreMachine) Report() stats.Report {
	c := m.c
	col := *c.Collector()
	return stats.Report{
		Collector:      col,
		Mem:            c.Mem().Stats(),
		BusUtilization: c.Mem().Bus().Utilization(c.Now(), col.Cycles),
		Threads:        c.Config().Threads,
		Decoupled:      c.Config().Decoupled,
		L2Latency:      c.Config().Mem.L2Latency,
		MemLevels:      c.Mem().LevelStats(c.Now(), col.Cycles),
	}
}

// cmpMachine adapts a lockstep core.CMP.
type cmpMachine struct{ p *core.CMP }

func (m cmpMachine) Tick()                { m.p.Tick() }
func (m cmpMachine) Step(horizon int64)   { m.p.Step(horizon) }
func (m cmpMachine) Now() int64           { return m.p.Now() }
func (m cmpMachine) Cycles() int64        { return m.p.Core(0).Collector().Cycles }
func (m cmpMachine) Graduated() int64     { return m.p.Graduated() }
func (m cmpMachine) Done() bool           { return m.p.Done() }
func (m cmpMachine) ResetStats()          { m.p.ResetStats() }
func (m cmpMachine) Report() stats.Report { return m.p.Report() }
func (m cmpMachine) DrainPipeline() bool  { return m.p.DrainPipeline() }
func (m cmpMachine) Warp(n int64) int64   { return m.p.Warp(n) }

// runner holds the state one Run invocation threads through its windows.
type runner struct {
	ctx       context.Context
	opts      Options
	m         machine
	maxCycles int64
	every     int64
	// step advances the machine one scheduler step: Tick (stepped) or
	// Step to the cycle cap (every other run). The window loops only
	// depend on state that is frozen during a skip (graduation counts,
	// Done, the cycle bound the skip is clamped to), so both drivers take
	// the same path through each window boundary.
	step func()
	// polls counts scheduler steps for amortized cancellation checks.
	polls int64
	// completed clears when the run hits the cycle cap.
	completed bool

	// Epoch-parallel execution (Options.Parallel on an eligible CMP
	// run): epoch drives the cores concurrently, epochDenom is the
	// machine's maximum graduation rate (instructions per cycle, all
	// cores), which bounds each epoch's horizon so no window boundary
	// can fall strictly inside an epoch, and limit is the current
	// window's instruction bound (set by window; <= 0 = run to drain,
	// which stays serial). stepErr carries an epoch abort out of the
	// step callback.
	epoch      *core.EpochRunner
	epochDenom int64
	limit      int64
	stepErr    error
}

// epochDenom returns the machine-wide per-cycle graduation bound.
func epochDenom(mc config.Machine) int64 {
	d := int64(mc.CoreCount()) * int64(mc.Threads) * int64(mc.GraduateWidth)
	if d < 1 {
		d = 1
	}
	return d
}

// Epoch sizing: below minEpochSpan cycles the worker hand-off cannot
// pay for itself, so the step falls back to the (bit-identical) serial
// driver; maxEpochSpan bounds an epoch so progress snapshots, which the
// window loop takes between steps, keep coming on long runs.
const (
	minEpochSpan = 64
	maxEpochSpan = 1 << 22
)

// epochStep advances the machine one parallel epoch. The horizon is
// chosen so the serial loop could not have stopped strictly inside the
// epoch: with at most epochDenom instructions graduating per cycle,
// the window's remaining budget cannot be exhausted before the last
// epoch cycle, so serial and parallel runs observe every window
// boundary at the same cycle.
func (r *runner) epochStep() {
	m := r.m
	if r.limit <= 0 {
		// Run-to-drain window: finite sources can stop the serial loop
		// anywhere, which no pre-computed horizon can match. Stay serial.
		m.Step(r.maxCycles)
		return
	}
	span := (r.limit - m.Graduated()) / r.epochDenom
	if span < minEpochSpan {
		m.Step(r.maxCycles)
		return
	}
	if span > maxEpochSpan {
		span = maxEpochSpan
	}
	h := m.Now() + span
	if h > r.maxCycles {
		h = r.maxCycles
	}
	if h <= m.Now() {
		m.Step(r.maxCycles)
		return
	}
	if err := r.epoch.RunEpoch(r.ctx, h); err != nil {
		r.stepErr = err
	}
}

func newRunner(ctx context.Context, opts Options, m machine) *runner {
	r := &runner{ctx: ctx, opts: opts, m: m, completed: true}
	r.maxCycles = opts.MaxCycles
	if r.maxCycles <= 0 {
		r.maxCycles = DefaultMaxCycles
	}
	r.every = opts.ProgressEvery
	if r.every <= 0 {
		r.every = DefaultProgressEvery
	}
	if opts.Stepped {
		r.step = m.Tick
	} else {
		r.step = func() { m.Step(r.maxCycles) }
	}
	return r
}

func (r *runner) snapshot(phase string, target int64) Snapshot {
	return Snapshot{
		Phase:       phase,
		Graduated:   r.m.Graduated(),
		TargetInsts: target,
		Cycles:      r.m.Cycles(),
		TotalCycles: r.m.Now(),
	}
}

// window advances the machine while more() holds and the sources are
// live, honouring the cycle cap, amortized cancellation and the progress
// cadence. target only labels the snapshots; limit is the window's
// instruction bound (the value more() compares Graduated against, <= 0
// when the window runs to drain), which the epoch-parallel step uses
// to size horizons.
func (r *runner) window(phase string, target, limit int64, more func() bool) error {
	r.limit = limit
	nextSnap := r.every
	for more() && !r.m.Done() {
		if r.m.Now() >= r.maxCycles {
			r.completed = false
			break
		}
		if r.polls++; r.polls&cancelPollMask == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		if r.opts.OnProgress != nil && r.m.Graduated() >= nextSnap {
			r.opts.OnProgress(r.snapshot(phase, target))
			nextSnap = r.m.Graduated() + r.every
		}
		r.step()
		if r.stepErr != nil {
			return r.stepErr
		}
	}
	return nil
}

// runDetailed is the exact run: warm-up window, stats reset,
// measurement window, report.
func (r *runner) runDetailed() (Result, error) {
	m, opts := r.m, r.opts

	// Warm-up window.
	err := r.window(PhaseWarmup, opts.WarmupInsts, opts.WarmupInsts, func() bool {
		return m.Graduated() < opts.WarmupInsts
	})
	if err != nil {
		return Result{}, err
	}
	// Reset measurement state; machine state (caches, queues, in-flight
	// instructions) carries over, which is the point of warming up.
	m.ResetStats()

	// Measurement window.
	err = r.window(PhaseMeasure, opts.MeasureInsts, opts.MeasureInsts, func() bool {
		return opts.MeasureInsts <= 0 || m.Graduated() < opts.MeasureInsts
	})
	if err != nil {
		return Result{}, err
	}
	if opts.OnProgress != nil {
		// Window-boundary snapshot: the final measurement counts.
		opts.OnProgress(r.snapshot(PhaseMeasure, opts.MeasureInsts))
	}

	return Result{Report: m.Report(), Completed: r.completed, TotalCycles: m.Now()}, nil
}

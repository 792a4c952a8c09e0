package core

import (
	"context"
	"sync/atomic"
)

// Epoch-parallel CMP execution (DESIGN.md §12): on a machine with no
// shared chain — the flat model, or one private hierarchy per core —
// each core of a run advances on its own worker goroutine to a common
// horizon cycle, and the coordinator joins them there. No core's memory
// traffic reaches a level another core uses, so each core's epoch is a
// function of its own state alone and the parallel run is bit-identical
// to serial lockstep stepping at any GOMAXPROCS.
//
// The one cross-core effect left is coherence: a store probes the other
// cores' private levels. The caller must have declared disjoint address
// spaces on the interconnect (sim gates on it), under which every probe
// finds nothing, so the probes are skipped while an epoch is open.
//
// On a CMP with a shared chain the runner starts no workers and
// RunEpoch advances the machine with the serial CMP.Step loop.

// serialPollMask amortizes context polling on the serial path: ctx is
// checked once every (mask+1) steps.
const serialPollMask = 1<<10 - 1

// EpochRunner drives one CMP's cores in parallel epochs. Create with
// NewEpochRunner (which rewires the interconnect for epoch mode — the
// machine remains serially steppable between epochs), run epochs with
// RunEpoch, and Close when the run ends to stop the worker goroutines.
type EpochRunner struct {
	p *CMP
	// runs[c] hands core c's worker the horizon of its next epoch; nil
	// on a shared-chain CMP.
	runs []chan int64
	// done receives one token per worker that ended its epoch.
	done    chan struct{}
	slots   chan struct{}
	aborted atomic.Bool
	closed  bool
}

// NewEpochRunner prepares the CMP for epoch-parallel execution with at
// most `workers` cores advancing concurrently (clamped to the core
// count; values below two still work but buy nothing). The caller must
// have declared disjoint address spaces on the interconnect — the
// coherence-skip soundness argument depends on it.
func NewEpochRunner(p *CMP, workers int) *EpochRunner {
	e := &EpochRunner{p: p}
	if p.cfg.Mem.SharedChain() {
		return e
	}
	workers = min(max(workers, 1), len(p.cores))
	e.done = make(chan struct{}, len(p.cores))
	e.slots = make(chan struct{}, workers)
	p.ic.EnableEpochMode(func(c int) func(at int64) {
		co := p.cores[c]
		return func(at int64) { co.cal.schedule(co.now, at) }
	})
	for _, co := range p.cores {
		run := make(chan int64)
		e.runs = append(e.runs, run)
		go e.work(co, run)
	}
	return e
}

// Close stops the worker goroutines. The machine remains usable on the
// serial path (the interconnect stays in epoch mode, which the serial
// CMP driver handles).
func (e *EpochRunner) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, run := range e.runs {
		close(run)
	}
}

// RunEpoch advances every core from the common current cycle to
// exactly the horizon h, bit-identically to serial lockstep stepping.
// The caller guarantees serial stepping could not have stopped strictly
// inside the epoch (sim derives h from the remaining instruction
// budget). On cancellation the machine state is not serial-equivalent
// and the run must be discarded — the returned error propagates.
func (e *EpochRunner) RunEpoch(ctx context.Context, h int64) error {
	if e.runs == nil {
		return e.stepSerially(ctx, h)
	}
	e.p.ic.EpochSetActive(true)
	defer e.p.ic.EpochSetActive(false)
	running := 0
	for c, run := range e.runs {
		if !e.p.cores[c].Done() {
			run <- h
			running++
		}
	}
	for ; running > 0; running-- {
		select {
		case <-e.done:
		case <-ctx.Done():
			// Workers check the abort flag between steps; wait them out
			// so none touches the machine after RunEpoch returns.
			e.aborted.Store(true)
			for ; running > 0; running-- {
				<-e.done
			}
			e.aborted.Store(false)
			return ctx.Err()
		}
	}
	e.finish(h)
	return nil
}

// stepSerially is RunEpoch on a shared-chain CMP: the serial lockstep
// loop to h.
func (e *EpochRunner) stepSerially(ctx context.Context, h int64) error {
	p := e.p
	for n := 0; p.Now() < h && !p.Done(); n++ {
		if n&serialPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p.Step(h)
	}
	return nil
}

// finish closes the epoch: every core is at the horizon or drained
// before it. Drained cores advance to the epoch end with full fidelity
// (their in-flight fills still land at exact cycles). If every core
// drained — possible only with finite sources; the built-in generators
// never drain — the epoch truncates at the last drain cycle, where the
// serial loop would have stopped.
func (e *EpochRunner) finish(h int64) {
	end := h
	if e.p.Done() {
		end = 0
		for _, co := range e.p.cores {
			end = max(end, co.now)
		}
	}
	for _, co := range e.p.cores {
		advanceDrained(co, end)
	}
}

// advanceDrained advances a drained core to the target cycle on the
// coordinator goroutine: ticks when state changes (in-flight L1 or
// private-chain fills still land, and their dirty victims write back),
// fast-forwards between events. Equivalent to the serial loop's
// treatment of a drained core, minus the Done re-check serial stepping
// performs (a drained core stays drained).
func advanceDrained(co *Core, to int64) {
	for co.now < to {
		co.Tick()
		if !co.progressed {
			end := min(co.nextEventAt()-1, to)
			if k := end - co.now; k > 0 {
				co.fastForward(k)
			}
		}
	}
}

// work is core co's worker goroutine: one epoch per horizon received,
// holding a CPU slot throughout.
func (e *EpochRunner) work(co *Core, run <-chan int64) {
	for h := range run {
		e.slots <- struct{}{}
		for co.now < h && !co.Done() && !e.aborted.Load() {
			co.Step(h)
		}
		<-e.slots
		e.done <- struct{}{}
	}
}

package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CMP composes N cores — each a complete SMT decoupled processor with
// its own contexts, issue logic and private L1 — over a shared memory
// fabric (mem.Interconnect). The cores tick in lockstep, in fixed index
// order within each cycle, so shared-level arbitration is
// first-come-first-served by core index: a deliberate, documented bias
// that makes every run bit-reproducible and independent of GOMAXPROCS
// (the whole machine advances on one goroutine).
//
// Fast-forward generalizes from the single core: a cycle in which no
// core made progress is provably identical to every following cycle up
// to the earliest event scheduled on ANY core's calendar — shared-level
// fills are broadcast into every calendar — so the CMP skips to the
// minimum over the per-core next events and bulk-replays each core's
// constant per-cycle accounting.
type CMP struct {
	cfg   config.Machine
	ic    *mem.Interconnect
	cores []*Core

	// progressed reports whether the last Tick changed any machine state
	// (any core progressed, or a shared/private lower level installed a
	// line).
	progressed bool
}

// NewCMP builds an n-core machine for configuration m (Cores × Threads
// contexts) with one instruction source per context, core-major:
// sources[c*Threads+t] feeds core c's context t.
func NewCMP(m config.Machine, sources []trace.Reader) (*CMP, error) {
	m = m.Effective()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.CoreCount()
	if len(sources) != m.TotalContexts() {
		return nil, fmt.Errorf("core: %d sources for %d cores × %d contexts",
			len(sources), n, m.Threads)
	}
	ic, err := mem.NewInterconnect(m.Mem, n)
	if err != nil {
		return nil, err
	}
	p := &CMP{cfg: m, ic: ic}
	for c := 0; c < n; c++ {
		co, err := newCore(m, sources[c*m.Threads:(c+1)*m.Threads], ic.System(c))
		if err != nil {
			return nil, err
		}
		p.cores = append(p.cores, co)
	}
	// Shared (or private-L2) fills are events for every core: the level's
	// MSHR frees and its tags change at that cycle, which can unblock any
	// core's rejected accesses. Broadcasting into all calendars keeps the
	// fast-forward invariant: the machine ticks at every cycle its state
	// can change.
	ic.SetFillScheduler(func(at int64) {
		for _, co := range p.cores {
			co.cal.schedule(co.now, at)
		}
	})
	return p, nil
}

// Config returns the effective machine configuration (Cores set).
func (p *CMP) Config() config.Machine { return p.cfg }

// Cores returns the number of cores.
func (p *CMP) Cores() int { return len(p.cores) }

// Core returns core c (for tests and reports).
func (p *CMP) Core(c int) *Core { return p.cores[c] }

// Interconnect returns the shared memory fabric.
func (p *CMP) Interconnect() *mem.Interconnect { return p.ic }

// Now returns the current cycle (identical across the lockstep cores).
func (p *CMP) Now() int64 { return p.cores[0].now }

// SkippedCycles returns how many cycles Step fast-forwarded over
// (machine-level: the lockstep cores always skip together).
func (p *CMP) SkippedCycles() int64 { return p.cores[0].skippedCycles }

// Graduated sums instructions retired across all cores in the current
// window.
func (p *CMP) Graduated() int64 {
	var g int64
	for _, co := range p.cores {
		g += co.col.Graduated
	}
	return g
}

// Done reports whether every core has drained.
func (p *CMP) Done() bool {
	for _, co := range p.cores {
		if !co.Done() {
			return false
		}
	}
	return true
}

// Tick advances the whole machine by one cycle: the shared fabric
// first (lines install below before any core can request them this
// cycle — the same bottom-up order the single-core System uses), then
// each core in index order.
func (p *CMP) Tick() {
	now := p.cores[0].now + 1
	p.progressed = p.ic.BeginCycle(now) > 0
	for _, co := range p.cores {
		co.Tick()
		if co.progressed {
			p.progressed = true
		}
	}
}

// Step advances by at least one cycle, fast-forwarding over stretches
// in which no core can make progress: the skip target is the earliest
// event on any core's calendar, and each core bulk-replays its own
// constant per-cycle accounting — bit-identical to ticking, which the
// CMP equivalence tests enforce.
func (p *CMP) Step(horizon int64) {
	p.Tick()
	if p.progressed || p.Now() >= horizon {
		return
	}
	end := horizon
	for _, co := range p.cores {
		if e := co.nextEventAt() - 1; e < end {
			end = e
		}
	}
	if end > p.Now() && !p.Done() {
		k := end - p.Now()
		for _, co := range p.cores {
			co.fastForward(k)
		}
	}
}

// ResetStats clears every core's collector and L1 counters and the
// shared fabric's level counters (machine state — caches, queues,
// in-flight instructions — carries over): the warm-up/measurement
// boundary.
func (p *CMP) ResetStats() {
	for _, co := range p.cores {
		co.col.Reset()
		co.mem.ResetStats()
	}
	p.ic.ResetStats()
}

// Report assembles the measurement-window report: collector counters
// and L1 stats aggregated over the cores (fixed core order, so the
// float waste buckets are deterministic), per-core retirement, and
// MemLevels listing each core's private L1 (with its coherence
// counters) ahead of the interconnect-owned shared or private levels.
func (p *CMP) Report() stats.Report {
	end := p.Now()
	col := p.cores[0].col
	for _, co := range p.cores[1:] {
		col.MergeCore(&co.col)
	}
	window := col.Cycles
	var ms mem.Stats
	var busUtil float64
	perCore := make([]int64, len(p.cores))
	levels := make([]mem.LevelStats, 0, len(p.cores))
	for c, co := range p.cores {
		perCore[c] = co.col.Graduated
		ms.Merge(co.mem.Stats())
		busUtil += co.mem.Bus().Utilization(end, window)
		levels = append(levels, co.mem.L1LevelStats(end, window))
	}
	levels = append(levels, p.ic.LevelStats(end, window)...)
	return stats.Report{
		Collector:        col,
		Mem:              ms,
		BusUtilization:   busUtil / float64(len(p.cores)),
		Threads:          p.cfg.Threads,
		Decoupled:        p.cfg.Decoupled,
		L2Latency:        p.cfg.Mem.L2Latency,
		MemLevels:        levels,
		Cores:            len(p.cores),
		PerCoreGraduated: perCore,
	}
}

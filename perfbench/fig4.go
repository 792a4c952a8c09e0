package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// The fig4-sweep phase regenerates the paper's Figure 4 grid — {1..4
// threads} × {decoupled, non-decoupled} × L2 latency {1..256}, 48 fresh
// single-core points on the mix workload — through experiments.Fig4, the
// dae-sweep path, on a private in-memory runner with nproc workers. Each
// pass uses a new seed from the phase's stream, so every pass generates
// and interns its streams afresh, as one dae-sweep process does; the
// latency points of a pass share streams, so interning is engaged.
const (
	fig4WarmupPerThread  = 20_000
	fig4MeasurePerThread = 80_000
	// fig4Passes is the number of passes every run makes (see phase and
	// phaseShares).
	fig4Passes = 4
	// fig4Points is the size of the Figure 4 grid.
	fig4Points = 48
)

// fig4Run is one fig4-sweep phase in progress; a unit is one pass.
type fig4Run struct {
	b     *bench
	insts int64
	busy  time.Duration // host time of the passes that completed
}

// fig4Phase sets the phase up. Its set-up is the runner each pass
// builds, which the pass's time includes.
func (b *bench) fig4Phase() (stepper, error) { return &fig4Run{b: b}, nil }

func (f *fig4Run) step() error {
	b := f.b
	seed := b.rng("fig4").Uint64N(1 << 32)
	sp := b.tr.begin("fig4.pass", 0, fmt.Sprintf("fig4-%d", seed))
	defer b.tr.end(sp)
	t0 := time.Now()
	r, err := runner.New(runner.Options{Workers: b.nproc})
	if err != nil {
		return err
	}
	sw := b.tr.begin("experiments.Fig4", sp, "")
	_, err = experiments.Fig4(experiments.Budget{
		WarmupPerThread:  fig4WarmupPerThread,
		MeasurePerThread: fig4MeasurePerThread,
		Seed:             seed,
		Runner:           r,
	})
	b.tr.end(sw)
	el := time.Since(t0)
	if err != nil {
		// Fig4 fails as a whole; every point of the pass counts.
		for range fig4Points {
			b.gate.fail("fig4 pass", err)
		}
		return nil
	}
	n, err := b.checkSweep(r, sp)
	if err != nil {
		return err
	}
	f.insts += n
	f.busy += el
	return nil
}

// result reports the passes' throughput as their total instructions over
// their total host time, not as a median over passes: a run makes few
// passes, each long enough to fall into one stretch of the host's speed,
// and a median of few such values jumps between stretches.
func (f *fig4Run) result() phaseResult {
	rate := float64(f.insts) / f.busy.Seconds()
	return phaseResult{
		e2e:   map[string]metric{"sim_insts_per_s": {rate, "1/s"}},
		insts: f.insts,
	}
}

func (f *fig4Run) close() {}

// checkSweep passes every point a sweep's runner produced through the
// gate and returns the graduated instructions of the sweep (warm-up and
// measurement windows).
func (b *bench) checkSweep(r *runner.Runner, parent int64) (int64, error) {
	var buf bytes.Buffer
	if _, err := r.WriteHashes(&buf); err != nil {
		return 0, err
	}
	var insts int64
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for range fig4Points - len(lines) {
		b.gate.fail("fig4 pass", fmt.Errorf("point missing from the sweep"))
	}
	for _, line := range lines {
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			return 0, fmt.Errorf("malformed hash line %q", line)
		}
		sp := b.tr.begin("gate.check", parent, f[0])
		rep, ok := r.Lookup(f[0])
		if !ok {
			b.gate.fail(f[2], fmt.Errorf("result missing from the runner"))
		} else if runner.ReportHash(rep) != f[1] {
			b.gate.fail(f[2], fmt.Errorf("served report differs from the one computed"))
		} else if b.checked(f[2], f[0], rep) {
			insts += rep.Graduated + int64(rep.Threads)*fig4WarmupPerThread
		}
		b.tr.end(sp)
	}
	return insts, nil
}

package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// White-box tests for the epoch runner's horizon handling against the
// per-core event calendars (satellite coverage for DESIGN.md §12): an
// epoch boundary landing exactly on a calendar far-heap event, a shared
// fill broadcast landing exactly on the epoch edge, and an epoch whose
// window contains no shared events at all. Each scenario runs the epoch
// machine against a serially-stepped twin built from identical sources
// and requires bit-identical state at every horizon.

// epochPair is an epoch-parallel CMP and its serial oracle twin.
type epochPair struct {
	p      *CMP // epoch machine
	er     *EpochRunner
	oracle *CMP // serial twin, plain lockstep Step
}

func newEpochPair(t *testing.T, m config.Machine, workers int) *epochPair {
	t.Helper()
	build := func() *CMP {
		n := m.Effective().TotalContexts()
		srcs := make([]trace.Reader, n)
		copy(srcs, workload.MixSources(n, workload.MixOpts{}))
		p, err := NewCMP(m, srcs)
		if err != nil {
			t.Fatal(err)
		}
		p.Interconnect().SetDisjointAddressSpaces(true)
		return p
	}
	pair := &epochPair{p: build(), oracle: build()}
	pair.er = NewEpochRunner(pair.p, workers)
	t.Cleanup(pair.er.Close)
	return pair
}

// advance runs one epoch to horizon h on the parallel machine, steps the
// oracle to the same cycle, and requires identical state.
func (ep *epochPair) advance(t *testing.T, h int64) {
	t.Helper()
	if err := ep.er.RunEpoch(context.Background(), h); err != nil {
		t.Fatalf("RunEpoch(%d): %v", h, err)
	}
	for ep.oracle.Now() < h {
		ep.oracle.Step(h)
	}
	ep.check(t, h)
}

func (ep *epochPair) check(t *testing.T, h int64) {
	t.Helper()
	if ep.p.Now() != h || ep.oracle.Now() != h {
		t.Fatalf("clocks at horizon %d: parallel %d, oracle %d", h, ep.p.Now(), ep.oracle.Now())
	}
	for c := range ep.p.cores {
		if got, want := ep.p.cores[c].now, ep.oracle.cores[c].now; got != want {
			t.Fatalf("core %d clock: parallel %d, oracle %d", c, got, want)
		}
	}
	got, want := ep.p.Report(), ep.oracle.Report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state diverged at horizon %d\nparallel: %+v\noracle:   %+v", h, got, want)
	}
}

// nextCoreEvent returns the earliest calendar event strictly after now
// across the parallel machine's cores, and whether the oracle agrees.
func (ep *epochPair) nextCoreEvent(t *testing.T) int64 {
	t.Helper()
	min := func(p *CMP) int64 {
		e := int64(Never)
		for _, co := range p.cores {
			if at := co.nextEventAt(); at < e {
				e = at
			}
		}
		return e
	}
	got, want := min(ep.p), min(ep.oracle)
	if got != want {
		t.Fatalf("calendar horizon query: parallel %d, oracle %d", got, want)
	}
	return got
}

// TestEpochHorizonOnFarHeapEvent pins the epoch boundary exactly on a
// calendar event that lives in the far-overflow heap (beyond the timing
// wheel's bitmap window): a private hierarchy with a 6000-cycle DRAM
// schedules fills thousands of cycles out into the owning core's
// calendar, and the epoch ending on that exact cycle must apply the
// fill identically to the serial machine.
func TestEpochHorizonOnFarHeapEvent(t *testing.T) {
	m := config.Figure2(1).WithCores(2).
		WithHierarchy(6000, config.SharedL2(64<<10, 8)).
		WithPrivateHierarchy()
	ep := newEpochPair(t, m, 2)

	// Prime: long enough for both cores to miss all the way to DRAM.
	ep.advance(t, 300)

	var hit bool
	for i := 0; i < 8; i++ {
		e := ep.nextCoreEvent(t)
		if e == int64(Never) {
			t.Fatal("no pending calendar event with DRAM misses in flight")
		}
		if e-ep.p.Now() > calWindow {
			hit = true
		}
		// Epoch boundary exactly on the event cycle.
		ep.advance(t, e)
	}
	if !hit {
		t.Fatalf("no far-heap event seen (window %d); raise the DRAM latency", calWindow)
	}
	// And past it, so the fill's downstream effects replay too.
	ep.advance(t, ep.p.Now()+500)
}

// TestEpochSharedChainStepsSerially: on a CMP whose cores share an L2
// the runner starts no workers and leaves the fabric unrewired, and
// RunEpoch is the serial lockstep loop — it must match the oracle at
// every horizon, including horizons landing on a shared fill cycle
// (the event the serial machine broadcasts into every core's
// calendar), and honour a cancelled context.
func TestEpochSharedChainStepsSerially(t *testing.T) {
	m := config.Figure2(2).WithCores(2).
		WithHierarchy(64, config.SharedL2(256<<10, 8))
	ep := newEpochPair(t, m, 2)
	if ep.er.runs != nil {
		t.Fatal("shared-chain CMP started epoch workers")
	}

	ep.advance(t, 100)
	for i := 0; i < 12; i++ {
		// Horizon exactly on the next event any core waits for, then one
		// cycle past it.
		ep.advance(t, ep.nextCoreEvent(t))
		ep.advance(t, ep.p.Now()+1)
	}
	ep.advance(t, 20_000)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ep.er.RunEpoch(ctx, ep.p.Now()+1_000); err != context.Canceled {
		t.Fatalf("cancelled RunEpoch = %v, want context.Canceled", err)
	}
}

// TestEpochZeroSharedEvents runs epochs over a machine with no
// hierarchy at all — the flat model keeps every memory event in the
// per-core calendars — and requires the cores to stay in lockstep
// agreement with the oracle at every horizon.
func TestEpochZeroSharedEvents(t *testing.T) {
	m := config.Figure2(2).WithCores(2)
	ep := newEpochPair(t, m, 2)

	for _, h := range []int64{100, 1_000, 5_000, 20_000} {
		ep.advance(t, h)
	}
}

// TestEpochCancelMidEpoch: cancelling the context while the workers
// run toward a far horizon returns the context's error promptly, and
// the runner stays usable for Close.
func TestEpochCancelMidEpoch(t *testing.T) {
	m := config.Figure2(2).WithCores(2)
	ep := newEpochPair(t, m, 2)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	if err := ep.er.RunEpoch(ctx, 1<<40); err != context.Canceled {
		t.Fatalf("RunEpoch = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("cancellation took %v", took)
	}
}

// TestEpochDrainedCores runs finite sources of very different lengths:
// one core drains mid-epoch and must still advance to the horizon with
// its in-flight fills landing on time, and once every core has drained
// the epoch must stop at the last drain cycle, where the serial loop
// stops.
func TestEpochDrainedCores(t *testing.T) {
	m := config.Figure2(1).WithCores(2).
		WithHierarchy(300, config.SharedL2(64<<10, 8)).
		WithPrivateHierarchy()
	build := func() *CMP {
		srcs := workload.MixSources(2, workload.MixOpts{})
		srcs[0] = trace.Limit(srcs[0], 1_000)
		srcs[1] = trace.Limit(srcs[1], 50_000)
		p, err := NewCMP(m, srcs)
		if err != nil {
			t.Fatal(err)
		}
		p.Interconnect().SetDisjointAddressSpaces(true)
		return p
	}
	p, oracle := build(), build()
	er := NewEpochRunner(p, 2)
	defer er.Close()
	for _, h := range []int64{20_000, 1 << 30} {
		if err := er.RunEpoch(context.Background(), h); err != nil {
			t.Fatal(err)
		}
		for oracle.Now() < h && !oracle.Done() {
			oracle.Step(h)
		}
		if p.Now() != oracle.Now() {
			t.Fatalf("horizon %d: parallel at %d, oracle at %d", h, p.Now(), oracle.Now())
		}
		if got, want := p.Report(), oracle.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("horizon %d: state diverged\nparallel: %+v\noracle:   %+v", h, got, want)
		}
		if h == 20_000 && (!p.Core(0).Done() || p.Core(1).Done()) {
			t.Fatalf("at %d want only core 0 drained: done = %v, %v", h, p.Core(0).Done(), p.Core(1).Done())
		}
	}
	if !p.Done() || p.Now() >= 1<<30 {
		t.Fatalf("machine not drained at a truncated horizon: done=%v now=%d", p.Done(), p.Now())
	}
	if !p.Core(0).Done() || p.Core(0).now != p.Now() {
		t.Fatal("drained core 0 did not advance with the machine")
	}
}

package sim

// The adaptive execution mode: calendar fast-forward (Step) is a clear
// win when the machine spends long stretches provably idle — a far L2 or
// DRAM miss with nothing else to do — but on busy configurations every
// Step call pays a nextEventAt scan that a plain Tick would not, a few
// percent of the run. The controller below watches the *realized* skip
// rate over windows of scheduler advances and picks the cheaper driver
// for the next window, with an exponential backoff so mostly-busy runs
// pay the probing tax ever more rarely.
//
// The hot path is deliberately free of clock reads: each advance is one
// compare-and-decrement on a local countdown plus the driver call, so
// driving either mode through the controller costs the same as the bare
// run/stepped loops. The machine's clock and skip counter are consulted
// only at window boundaries. Windows therefore count *advances*, not
// cycles: in stepped mode the two are equal (Tick is one cycle); in fast
// mode a window of N advances covers at least N cycles — overshooting is
// harmless there, because a long window in fast mode means skipping is
// working, and the controller's reaction latency stays bounded in
// advances (i.e. in wall-clock work) either way.
//
// Adaptive runs are bit-identical to exact runs by construction: Tick and
// Step leave the machine in identical states (the equivalence suite pins
// this), and the controller's decisions depend only on deterministic
// simulation counters — never on wall-clock time — so the same run always
// takes the same path.

// AdaptiveWindow is a committed window: the advances served in one mode
// before the controller reconsiders.
const AdaptiveWindow = 1 << 16

// AdaptiveProbe is the short fast-forward window used to (re)measure the
// skip rate. Probes are the tax a busy run pays for the chance to notice
// it has turned idle, so they are 16× shorter than committed windows.
const AdaptiveProbe = 1 << 12

// adaptiveSkipPctMin is the skip-rate floor, in percent of window cycles,
// below which fast-forwarding is judged not to pay for its bookkeeping.
// The fast-forward tax measured on the busiest bench configs is ~3% of
// run time, so a window must skip at least that to break even.
const adaptiveSkipPctMin = 3

// adaptiveMaxBackoff caps the stepped-mode backoff, so a run that turns
// idle late is never more than ~16 windows (1M cycles) from rediscovering
// fast-forward.
const adaptiveMaxBackoff = 16

// adaptiveStepper is the controller state.
type adaptiveStepper struct {
	m       machine
	horizon int64

	left     int64 // advances remaining in the current window (the hot countdown)
	stepping bool  // current driver: plain Tick when true
	windows  int   // stepped windows remaining before the next fast probe
	backoff  int   // stepped windows to commit after the next failed probe
	winStart int64 // Now() when the current fast window opened
	lastSkip int64 // SkippedCycles() when the current fast window opened
}

// newAdaptiveStepper returns a step function that advances m one
// scheduler step, switching between cycle stepping (Tick) and calendar
// fast-forward (Step, clamped to horizon) based on the realized skip
// rate.
func newAdaptiveStepper(m machine, horizon int64) func() {
	a := &adaptiveStepper{m: m, horizon: horizon, backoff: 1}
	a.startFast(AdaptiveProbe)
	return a.advance
}

func (a *adaptiveStepper) advance() {
	if a.left <= 0 {
		a.boundary()
	}
	a.left--
	if a.stepping {
		a.m.Tick()
		return
	}
	a.m.Step(a.horizon)
}

// startFast opens a fast-forward window of n advances and records the
// clock and skip counter it will be judged against.
func (a *adaptiveStepper) startFast(n int64) {
	a.stepping = false
	a.left = n
	a.winStart = a.m.Now()
	a.lastSkip = a.m.SkippedCycles()
}

// boundary closes the elapsed window and picks the driver for the next
// one. Runs once per window — everything here is off the hot path.
func (a *adaptiveStepper) boundary() {
	if a.stepping {
		// Stepped windows skip nothing, so there is no rate to measure;
		// serve the committed windows, then probe one short fast window.
		if a.windows--; a.windows > 0 {
			a.left = AdaptiveWindow
			return
		}
		a.startFast(AdaptiveProbe)
		return
	}
	// A fast window just ended: did fast-forwarding earn its keep?
	elapsed := a.m.Now() - a.winStart
	dSkip := a.m.SkippedCycles() - a.lastSkip
	if dSkip*100 < elapsed*adaptiveSkipPctMin {
		a.stepping = true
		a.left = AdaptiveWindow
		a.windows = a.backoff
		if a.backoff *= 2; a.backoff > adaptiveMaxBackoff {
			a.backoff = adaptiveMaxBackoff
		}
		return
	}
	a.backoff = 1
	a.startFast(AdaptiveWindow)
}

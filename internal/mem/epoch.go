package mem

// Epoch mode: support for deterministic parallel CMP simulation
// (DESIGN.md §12). The CMP driver shards cores across goroutines in
// epochs, which is only done for fabrics with no shared chain — the
// flat model or a PrivateHierarchy — so no core's memory traffic ever
// reaches a level another core uses. Two hooks remain:
//
//   - EnableEpochMode moves each core's private chain into its own
//     System.BeginCycle, so a worker goroutine advances it without
//     touching the interconnect.
//   - EpochSetActive brackets an epoch; while it is open
//     invalidateRemote is skipped (a probe could race a run-ahead
//     core's private tags). That is equivalent by construction only
//     under the workload's disjoint-address-space promise — no line is
//     ever cached by two cores — the same claim the functional warm
//     path's skip rests on.

// EnableEpochMode rewires a fabric with no shared chain for
// epoch-parallel execution. Called at most once, before the first
// cycle. coreSched(c) returns the scheduling hook for core c's event
// calendar: core c's private-chain fills schedule there instead of the
// CMP driver's broadcast to every core.
func (ic *Interconnect) EnableEpochMode(coreSched func(c int) func(at int64)) {
	if ic.epochMode {
		return
	}
	if len(ic.levels) > 0 {
		panic("mem: epoch mode needs a fabric with no shared chain")
	}
	ic.epochMode = true
	for c, chain := range ic.priv {
		ic.systems[c].chain = chain
		fn := coreSched(c)
		for _, l := range chain {
			l.sched = fn
		}
	}
}

// EpochSetActive opens (true) or closes (false) an epoch: while open,
// coherence broadcasts are suppressed. Called by the epoch coordinator
// with no worker running, so the flag needs no synchronization beyond
// the coordinator's own channels.
func (ic *Interconnect) EpochSetActive(v bool) { ic.epochActive = v }

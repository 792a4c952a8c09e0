package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	daesim "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/runner"
	"repro/internal/serveapi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sink keeps the results of timed pure calls alive, so the compiler
// cannot drop the calls.
var sink int

// setLayer records one per-layer metric.
func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// modelCounts aggregates the simulated statistics of every report the
// gate passed. They are model outputs, not host costs: they move only
// with a deliberate model change.
type modelCounts struct {
	mu                       sync.Mutex
	insts, loads, loadMisses int64
	accesses                 int64
	mshrRejects, portRejects int64
	l2Accesses, l2Misses     int64
	busUtil                  float64
	reports                  int
}

func (m *modelCounts) add(rep stats.Report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insts += rep.Graduated
	m.loads += rep.Mem.LoadAccesses
	m.loadMisses += rep.Mem.LoadMisses
	m.accesses += rep.Mem.LoadAccesses + rep.Mem.StoreAccesses
	m.mshrRejects += rep.Mem.MSHRRejects
	m.portRejects += rep.Mem.PortRejects
	for _, lv := range rep.MemLevels {
		if strings.HasSuffix(lv.Name, "L2") {
			m.l2Accesses += lv.Accesses
			m.l2Misses += lv.Misses
		}
	}
	m.busUtil += rep.BusUtilization
	m.reports++
}

func (m *modelCounts) memAccesses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.accesses
}

// checked passes a report through the gate and, when it passes, adds it
// to the model counts.
func (b *bench) checked(what, reqHash string, rep stats.Report) bool {
	if !b.gate.report(what, reqHash, rep) {
		return false
	}
	b.model.add(rep)
	return true
}

func (r runtimeSample) minus(o runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:      r.gcCPU - o.gcCPU,
		busyCPU:    r.busyCPU - o.busyCPU,
		allocBytes: r.allocBytes - o.allocBytes,
		objs:       r.objs - o.objs,
	}
}

func (r runtimeSample) plus(o runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:      r.gcCPU + o.gcCPU,
		busyCPU:    r.busyCPU + o.busyCPU,
		allocBytes: r.allocBytes + o.allocBytes,
		objs:       r.objs + o.objs,
	}
}

// runTraced is the per-layer pass. It runs the workload's phase for half
// of --seconds untraced, then the same units traced (spans plus a CPU
// profile), so the tracing overhead is the difference of the two; then
// the other phases at their minimum size, traced and profiled too, one
// after the other, so the profile also covers the sweep; then the
// standalone timings of each layer's public entry points.
func (b *bench) runTraced() error {
	one := func(ph phase, budget time.Duration, units int) (phaseResult, error) {
		rs, _, err := b.runPhases([]planned{{ph, 1, units}}, budget, false)
		if err != nil {
			return phaseResult{}, err
		}
		if ph.name == "serve-mixed" {
			b.serveTraced = rs[0]
		}
		return rs[0], nil
	}
	var own phase
	for _, ph := range b.phases() {
		if ph.name == b.workload {
			own = ph
		}
	}
	untraced, err := one(own, b.seconds/2, own.minUnits)
	if err != nil {
		return err
	}
	b.tr = newTracer()
	acc0 := b.model.memAccesses()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, err := one(own, 0, untraced.units)
	for _, ph := range b.phases() {
		if err == nil && ph.name != b.workload {
			_, err = one(ph, 0, ph.minUnits)
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	accesses := b.model.memAccesses() - acc0

	shares, cpuSec, err := profileShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, k := range []string{"fetch", "dispatch", "issue", "cache_access", "graduate", "branch", "calendar"} {
		b.setLayer("core."+k+"_share", shares[k], "frac")
	}
	b.setLayer("workload.share", shares["workload"], "frac")
	b.setLayer("epoch.share", shares["epoch"], "frac")
	b.setLayer("mem.share", shares["mem"], "frac")
	b.setLayer("sim.warp_share", shares["warp"], "frac")
	b.setLayer("sim.adaptive_share", shares["adaptive"], "frac")
	if accesses > 0 {
		b.setLayer("mem.host_ns_per_access", shares["mem"]*cpuSec*1e9/float64(accesses), "ns")
	} else {
		b.setLayer("mem.host_ns_per_access", 0, "ns")
	}
	rt := traced.rt
	b.setLayer("go.gc_cpu_frac", rt.gcCPU/max(rt.busyCPU, 1e-9), "frac")
	b.setLayer("go.alloc_bytes_per_inst", float64(rt.allocBytes)/float64(max(traced.insts, 1)), "B")
	b.setLayer("go.allocs_per_inst", float64(rt.objs)/float64(max(traced.insts, 1)), "count")
	b.setLayer("trace.overhead_frac", traced.headline/untraced.headline-1, "frac")

	m := &b.model
	m.mu.Lock()
	b.setLayer("mem.l1_load_miss_ratio", float64(m.loadMisses)/float64(max(m.loads, 1)), "frac")
	b.setLayer("mem.l2_miss_ratio", float64(m.l2Misses)/float64(max(m.l2Accesses, 1)), "frac")
	b.setLayer("mem.mshr_rejects", 1000*float64(m.mshrRejects)/float64(max(m.insts, 1)), "1/kinst")
	b.setLayer("mem.port_rejects", 1000*float64(m.portRejects)/float64(max(m.insts, 1)), "1/kinst")
	b.setLayer("bus.utilization", m.busUtil/float64(max(m.reports, 1)), "frac")
	m.mu.Unlock()

	if err := b.measureLayers(); err != nil {
		return err
	}
	b.setLayer("trace.spans", float64(b.tr.count()), "count")
	path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return err
	}
	profPath := strings.TrimSuffix(path, ".jsonl") + ".pprof"
	profPath = strings.Replace(profPath, "spans-", "cpu-", 1)
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path, "and the CPU profile to", profPath)
	return nil
}

// timeEach returns the median over five batches of the mean time of one
// call of f, in microseconds.
func timeEach(n int, f func(i int)) float64 {
	var per []float64
	for range 5 {
		t0 := time.Now()
		for i := range n {
			f(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n)/1e3)
	}
	return median(per)
}

// measureLayers times each layer's public entry points standalone and
// runs the traced run's cross-path checks.
func (b *bench) measureLayers() error {
	f, err := b.serveFixture()
	if err != nil {
		return err
	}
	gen, tr := f.pool[0], f.pool[len(f.pool)-1]

	// daesim request/engine.
	b.setLayer("request.normalize_us", timeEach(2000, func(i int) { sink += len(f.pool[i%len(f.pool)].Normalized().Label) }), "us")
	b.setLayer("request.validate_us", timeEach(2000, func(i int) {
		if f.pool[i%len(f.pool)].Validate() != nil {
			sink++
		}
	}), "us")
	b.setLayer("request.hash_us.gen", timeEach(2000, func(int) { sink += len(gen.Hash()) }), "us")
	b.setLayer("request.hash_us.trace", timeEach(2000, func(int) { sink += len(tr.Hash()) }), "us")
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc})
	if err != nil {
		return err
	}
	want, err := eng.Run(b.ctx, gen)
	if err != nil {
		return err
	}
	b.setLayer("engine.cached_run_us", timeEach(500, func(int) { eng.Run(b.ctx, gen) }), "us")
	batchUS := timeEach(500, func(int) { eng.RunBatch(b.ctx, []daesim.Request{gen}) })
	st := b.serveStats
	b.setLayer("engine.hit_ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.Simulated+st.Failures, 1)), "frac")
	b.setLayer("engine.stats.simulated", float64(st.Simulated), "count")
	b.setLayer("engine.stats.cache_hits", float64(st.CacheHits), "count")
	b.setLayer("engine.stats.failures", float64(st.Failures), "count")
	b.setLayer("engine.stats.cache_write_errors", float64(st.CacheWriteErrors), "count")

	// serveapi + net/http: the in-process handler on a cached POST.
	h := serveapi.NewHandler(eng, 0, 0)
	var respBytes int
	handlerUS := timeEach(500, func(int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(f.bodies[0])))
		respBytes = rec.Body.Len()
	})
	b.setLayer("serveapi.handler_us", handlerUS, "us")
	b.setLayer("serveapi.self_us", handlerUS-batchUS, "us")
	b.setLayer("serveapi.response_bytes", float64(respBytes), "B")
	self := b.tr.selfTimes()["client.post"]
	b.setLayer("http.transport_us", float64(self[0])/float64(max(self[1], 1))/1e3, "us")

	// runner: memory tier, disk tier, standalone execution.
	hash := gen.Hash()
	b.setLayer("runner.lookup_us", timeEach(2000, func(int) { eng.Lookup(hash) }), "us")
	b.setLayer("runner.disk_load_us", timeEach(200, func(i int) { runner.LoadEntry(f.cacheDir, f.hashes[i%len(f.hashes)]) }), "us")
	var entryBytes int64
	for _, hh := range f.hashes {
		if fi, err := os.Stat(filepath.Join(f.cacheDir, hh+".json")); err == nil {
			entryBytes += fi.Size()
		}
	}
	b.setLayer("runner.entry_bytes", float64(entryBytes)/float64(len(f.hashes)), "B")
	rng := b.rng("layers")
	var execMS []float64
	for range 5 {
		d, _, err := b.execute(serveFreshRequest(1<<41+rng.Uint64N(1<<32)), 0)
		if err != nil {
			return err
		}
		execMS = append(execMS, d)
	}
	execute := median(execMS)
	b.setLayer("runner.execute_ms", execute, "ms")
	b.setLayer("runner.wait_ms", b.serveTraced.e2e["fresh_ms_p50"].Value-execute-handlerUS/1e3, "ms")

	// Cross-path checks: the HTTP report bytes equal Engine.Run's.
	if err := b.checkHTTPBytes(f); err != nil {
		return err
	}
	// A memory-tier hit serves the report the simulation produced.
	if again, err := eng.Run(b.ctx, gen); err == nil {
		got, _ := json.Marshal(want)
		hit, _ := json.Marshal(again)
		b.gate.mismatch("cached Engine.Run", got, hit)
	}

	// workload / traceio.
	if err := b.measureWorkload(f); err != nil {
		return err
	}
	// sim drivers, core, epoch coordinator.
	if err := b.measureSim(); err != nil {
		return err
	}
	return nil
}

// execute runs a request's job standalone (Job.Execute: no engine, no
// cache) with the given intra-run parallelism and returns its wall time
// in milliseconds and its report.
func (b *bench) execute(req daesim.Request, parallel int) (float64, stats.Report, error) {
	j, err := jobOf(req)
	if err != nil {
		return 0, stats.Report{}, err
	}
	j.Parallel = parallel
	sp := b.tr.begin("runner.Job.Execute", 0, j.Hash()[:12])
	t0 := time.Now()
	rep, err := j.Execute(b.ctx, nil, 0)
	d := time.Since(t0)
	b.tr.end(sp)
	if err != nil {
		b.gate.fail(req.Label, err)
		return 0, rep, err
	}
	b.checked("execute "+req.Label, j.Hash(), rep)
	return float64(d) / 1e6, rep, nil
}

// checkHTTPBytes posts pool and fresh requests to a service and checks
// that each reply's report bytes equal Engine.Run's for the request.
func (b *bench) checkHTTPBytes(f *serveFixture) error {
	s, err := b.startServer(f.cacheDir)
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc})
	if err != nil {
		return err
	}
	rng := b.rng("layers")
	reqs := []daesim.Request{f.pool[0], f.pool[1], f.pool[len(f.pool)-1]}
	reqs = append(reqs, serveFreshRequest(1<<42+rng.Uint64N(1<<32)))
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		_, raw, err := b.post(s, body, fmt.Sprintf("bytes-%d", i), i == len(reqs)-1)
		if err != nil {
			b.gate.fail("HTTP bytes check", err)
			continue
		}
		rep, err := ref.Run(b.ctx, req)
		if err != nil {
			b.gate.fail("HTTP bytes check reference", err)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			return err
		}
		direct, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		b.gate.mismatch(fmt.Sprintf("HTTP vs Engine.Run report bytes (request %d)", i), compact.Bytes(), direct)
	}
	return nil
}

// readN reads up to n instructions from r and returns the count.
func readN(r trace.Reader, n int) int {
	var in isa.Inst
	k := 0
	for k < n && r.Next(&in) {
		k++
	}
	return k
}

func (b *bench) measureWorkload(f *serveFixture) error {
	const n = 200_000
	rng := b.rng("layers")
	perInst := func(r trace.Reader) float64 {
		t0 := time.Now()
		k := readN(r, n)
		return float64(time.Since(t0).Nanoseconds()) / float64(max(k, 1))
	}
	var gen, replay []float64
	for range 3 {
		opts := workload.MixOpts{Seed: 1<<43 + rng.Uint64N(1<<32)}
		gen = append(gen, perInst(workload.Mix(0, opts))) // first sighting: live
		readN(workload.Mix(0, opts), n)                   // second: materializes the buffer
		replay = append(replay, perInst(workload.Mix(0, opts)))
	}
	b.setLayer("workload.gen_ns_per_inst", median(gen), "ns")
	b.setLayer("workload.replay_ns_per_inst", median(replay), "ns")
	var tr []float64
	for range 3 {
		srcs, err := workload.TraceSources(filepath.Join(b.fixtures, "trace.ctr"), "", 2)
		if err != nil {
			return err
		}
		t0 := time.Now()
		k := 0
		for _, s := range srcs {
			k += readN(s, n)
		}
		tr = append(tr, float64(time.Since(t0).Nanoseconds())/float64(max(k, 1)))
	}
	b.setLayer("workload.trace_ns_per_inst", median(tr), "ns")
	return nil
}

// fig4Machine is the Figure 4 sweep's decoupled machine at a latency.
func fig4Machine(threads int, lat int64) config.Machine {
	m := config.Figure2(threads).WithL2Latency(lat)
	m.ScaleWithLatency = true
	return m
}

func (b *bench) measureSim() error {
	rng := b.rng("layers")

	// Standalone sim.Run calls on the sweep's short- and long-latency points.
	var totNS, totInsts float64
	for _, pt := range []struct {
		name string
		lat  int64
	}{{"l2_short", 16}, {"l2_long", 256}} {
		var per []float64
		for range 3 {
			seed := rng.Uint64N(1 << 32)
			t0 := time.Now()
			res, err := sim.Run(b.ctx, sim.Options{
				Machine:               fig4Machine(4, pt.lat),
				Sources:               workload.MixSources(4, workload.MixOpts{Seed: seed}),
				WarmupInsts:           4 * fig4WarmupPerThread,
				MeasureInsts:          4 * fig4MeasurePerThread,
				DisjointAddressSpaces: true,
			})
			d := time.Since(t0)
			if err != nil {
				return err
			}
			per = append(per, float64(d.Nanoseconds())/float64(max(res.TotalCycles, 1)))
			totNS += float64(d.Nanoseconds())
			totInsts += float64(4 * (fig4WarmupPerThread + fig4MeasurePerThread))
		}
		b.setLayer("sim.host_ns_per_cycle."+pt.name, median(per), "ns")
	}
	b.setLayer("sim.host_ns_per_inst", totNS/totInsts, "ns")

	// Per-class standalone runs, and the epoch speedup with the check
	// that the parallel report equals the serial one.
	for ci, c := range interClasses {
		var par, ser []float64
		for range 3 {
			req := c.req(1<<44 + rng.Uint64N(1<<32))
			req.Label = "layers " + c.name
			dp, rp, err := b.execute(req, b.nproc)
			if err != nil {
				return err
			}
			par = append(par, dp)
			if ci < 2 {
				ds, rs, err := b.execute(req, 1)
				if err != nil {
					return err
				}
				ser = append(ser, ds)
				a, _ := json.Marshal(rp)
				s, _ := json.Marshal(rs)
				b.gate.mismatch("parallel vs serial "+c.name, a, s)
			}
		}
		b.setLayer("sim.run_ms."+c.name, median(par), "ms")
		if ci < 2 {
			b.setLayer("epoch.speedup."+c.name, median(ser)/median(par), "x")
		}
	}

	// core: construction cost and the calendar's skipped-cycle share,
	// driven as dae-bench drives a core (Step to a far horizon), on the
	// sweep's one-thread L2=256 point, where fast-forward has idle
	// stretches to skip.
	m := fig4Machine(1, 256)
	b.setLayer("core.new_us", timeEach(20, func(int) {
		core.New(m, workload.MixSources(1, workload.MixOpts{Seed: 7}))
	}), "us")
	c, err := core.New(m, workload.MixSources(1, workload.MixOpts{Seed: 1<<45 + rng.Uint64N(1<<32)}))
	if err != nil {
		return err
	}
	for c.Collector().Graduated < fig4MeasurePerThread && !c.Done() {
		c.Step(1 << 50)
	}
	b.setLayer("core.skipped_cycle_frac", float64(c.SkippedCycles())/float64(max(c.Now(), 1)), "frac")

	return b.measureEpochs(rng.Uint64N(1<<32) + 1<<46)
}

// measureEpochs drives the shared-class CMP through EpochRunner.RunEpoch
// with the horizon rule sim uses, timing each epoch.
func (b *bench) measureEpochs(seed uint64) error {
	m := cmpMachine()
	p, err := core.NewCMP(m, workload.MixSources(m.TotalContexts(), workload.MixOpts{Seed: seed}))
	if err != nil {
		return err
	}
	p.Interconnect().SetDisjointAddressSpaces(true)
	er := core.NewEpochRunner(p, b.nproc)
	defer er.Close()
	const minSpan, maxSpan = 64, 1 << 22
	denom := int64(m.CoreCount() * m.Threads * m.GraduateWidth)
	limit := int64(interWarmup + interMeasure)
	var epochs, spanCycles int64
	var inEpoch time.Duration
	for p.Graduated() < limit && !p.Done() {
		span := min((limit-p.Graduated())/denom, maxSpan)
		if span < minSpan {
			p.Step(1 << 50)
			continue
		}
		t0 := time.Now()
		if err := er.RunEpoch(b.ctx, p.Now()+span); err != nil {
			return err
		}
		inEpoch += time.Since(t0)
		epochs++
		spanCycles += span
	}
	b.setLayer("epoch.count_per_run", float64(epochs), "count")
	b.setLayer("epoch.mean_span_cycles", float64(spanCycles)/float64(max(epochs, 1)), "cycles")
	b.setLayer("epoch.us_per_epoch", float64(inEpoch.Microseconds())/float64(max(epochs, 1)), "us")
	return nil
}

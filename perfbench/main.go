// Command perfbench is the repository's end-to-end benchmark of record.
// It drives the simulator's real user paths through their public
// functions — the Figure 4 sweep (dae-sweep), one-request-at-a-time
// Engine.Run calls (dae-sim -cores N -parallel N) and the dae-serve
// HTTP API — checks every report it receives, and prints every metric by
// name and unit. See README.md for the workloads, the metrics and the
// per-layer cost map.
//
//	perfbench --workload interactive --seed 1 --seconds 55 --trace 0
//	perfbench compare -spec BENCHMARK.json -parent a.json,b.json -change c.json,d.json
//	perfbench ab -parent ../parent-checkout -change . -workloads serve-mixed
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The simulator model is
// unvalidated against hardware: every timing here is host time, and
// simulated statistics are checked outputs, never regression metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	daesim "repro"
	"repro/internal/runner"
)

// defaultSeed is the seed the pinned report hashes belong to.
const defaultSeed = 1

// workloadNames lists the benchmark's workloads; each names the phase
// that gets the largest share of a run (see phaseShares).
var workloadNames = []string{"interactive", "serve-mixed"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is the --out format: the output line plus what a comparer
// needs to know about where and how it was measured.
type resultFile struct {
	output
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Host        Fingerprint       `json:"host"`
	Samples     map[string]int    `json:"samples"`
	Tails       map[string]string `json:"tails"`
	Failures    []string          `json:"failures,omitempty"`
	Unvalidated string            `json:"model"`
}

// bench is one benchmark process: its inputs, its gate and what it has
// measured so far.
type bench struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  time.Duration
	nproc    int
	dir      string // scratch directory of this process
	fixtures string // seed-keyed fixture directory (stable request paths)

	gate  *gate
	model modelCounts
	tr    *tracer // nil in untraced runs

	rngs    map[string]*rand.Rand
	e2e     map[string]metric
	layer   map[string]metric
	samples map[string]int
	tails   map[string]string
	serve   *serveFixture

	// serveStats and serveTraced keep the traced run's serve phase
	// for the per-layer metrics derived from it.
	serveStats  daesim.Stats
	serveTraced phaseResult
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "ab":
			os.Exit(abMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 55, "how long the run measures, shared among the phases by the workload's shares")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", "", "also write the full result, with the host fingerprint, to this file")
	writePins := fs.String("write-pins", "", "record the run's report hashes as the pin file (default seed only)")
	fs.Parse(args)
	if !slices.Contains(workloadNames, *wl) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames, "|"))
		return 2
	}
	if *writePins != "" && (*seed != defaultSeed || *traced != 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --write-pins needs the default seed and --trace 0")
		return 2
	}
	res, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *writePins)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Seconds = *seconds
	if *out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	printTable(res)
	line, err := json.Marshal(res.output)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func run(workload string, seed uint64, seconds time.Duration, traced bool, writePins string) (*resultFile, error) {
	g, err := newGate(seed, writePins != "")
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	fixtures := filepath.Join(".bench_build", "fixtures", fmt.Sprintf("seed-%d", seed))
	if err := os.MkdirAll(fixtures, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		ctx:      context.Background(),
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		nproc:    runtime.NumCPU(),
		dir:      dir,
		fixtures: fixtures,
		gate:     g,
		rngs:     make(map[string]*rand.Rand),
		e2e:      make(map[string]metric),
		layer:    make(map[string]metric),
		samples:  make(map[string]int),
		tails:    make(map[string]string),
	}
	host := hostFingerprint()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%v trace=%v host=%+v\n",
		workload, seed, seconds, traced, host)
	fmt.Fprintln(os.Stderr, "perfbench: model unvalidated against hardware; all timings are host time")
	if traced {
		err = b.runTraced()
	} else {
		err = b.runUntraced()
	}
	if err != nil {
		return nil, err
	}
	if writePins != "" {
		if err := g.writePins(writePins, seed); err != nil {
			return nil, err
		}
	}
	correct := g.failed == 0
	if n := g.missingPins(); n > 0 {
		correct = false
		g.note(fmt.Sprintf("%d pinned requests were never made", n))
	}
	for _, m := range g.messages() {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", m)
	}
	metrics := b.e2e
	if traced {
		metrics = b.layer
	}
	if g.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return &resultFile{
		output: output{
			Correct:   correct,
			Attempted: g.attempted,
			Failed:    g.failed,
			Metrics:   metrics,
		},
		Workload:    workload,
		Seed:        seed,
		Trace:       traced,
		Host:        host,
		Samples:     b.samples,
		Tails:       b.tails,
		Failures:    g.messages(),
		Unvalidated: "unvalidated against hardware: no reference results, no error figure",
	}, nil
}

// stepper runs one phase, set up by its phase's start function: step
// makes one unit of work and result summarizes the units made.
type stepper interface {
	step() error
	result() phaseResult
	close()
}

// phase is one user path the benchmark drives, in units of work.
type phase struct {
	name     string
	start    func() (stepper, error)
	minUnits int // made by every run, whatever the host's speed; pins.json covers them
}

func (b *bench) phases() []phase {
	return []phase{
		{"fig4-sweep", b.fig4Phase, fig4Passes},
		{"interactive", b.interactivePhase, interMinRounds},
		{"serve-mixed", b.servePhase, serveMinBursts},
	}
}

// phaseShares is, per workload, the share of a run's time each phase
// gets. Every run drives all three phases, because every end-to-end
// metric is reported on every workload; a workload gives its own phase
// the larger share. A phase without a share (the sweep) makes exactly
// its minimum units, spread evenly over the run: the sweep's throughput
// steadies with few passes, and the interner holds every pass's
// streams, so a pass count that followed the host's speed would move
// peak_rss_mb.
var phaseShares = map[string]map[string]float64{
	"interactive": {"interactive": 0.6, "serve-mixed": 0.4},
	"serve-mixed": {"interactive": 0.4, "serve-mixed": 0.6},
}

// phaseResult is what one phase measured.
type phaseResult struct {
	e2e      map[string]metric // the end-to-end metrics this phase owns
	headline float64           // the traced run's overhead is taken on it; lower is better
	insts    int64             // graduated instructions of fresh simulations
	elapsed  time.Duration     // time spent in the phase's units
	rt       runtimeSample     // Go runtime counter deltas over those units
	units    int               // units made
}

// planned is a phase, its share of the run's time and the number of
// units it makes at least (exactly, with no share).
type planned struct {
	phase
	share float64
	units int
}

// runPhases sets every planned phase up, then runs their units
// interleaved until budget has passed and every phase has made its
// units. A phase with no share makes exactly its units, each when it
// falls due; otherwise each step goes to the phase furthest behind its
// share of the time spent so far. Every phase's samples thus spread over
// the whole run and meet the same host conditions rather than one
// stretch of them. The inputs stay fixed by the seed: a phase draws them
// from its own stream, so a run makes a prefix of the same sequence
// whatever its length. With probe set, a set-up probe (see setUp) follows every step,
// so set-up samples spread over the run too; it returns their seconds.
func (b *bench) runPhases(plan []planned, budget time.Duration, probe bool) ([]phaseResult, []float64, error) {
	ds := make([]stepper, 0, len(plan))
	defer func() {
		for _, d := range ds {
			d.close()
		}
	}()
	for _, p := range plan {
		d, err := p.start()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", p.name, err)
		}
		ds = append(ds, d)
	}
	res := make([]phaseResult, len(plan))
	var setups []float64
	last := -1
	start := time.Now()
	for {
		// Past the budget only phases short of their units still run.
		now := time.Since(start)
		over := now >= budget
		pick := -1
		for i, p := range plan {
			short := res[i].units < p.units
			if p.share == 0 {
				// Its next unit is due once the run has used the same
				// share of the budget as the phase has of its units.
				if short && (over || float64(res[i].units)*budget.Seconds() <= now.Seconds()*float64(p.units)) {
					pick = i
					break
				}
				continue
			}
			if over && !short {
				continue
			}
			if pick < 0 || res[i].elapsed.Seconds()*plan[pick].share < res[pick].elapsed.Seconds()*p.share {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		if pick != last {
			// Collect the previous phase's garbage, so that a phase's
			// units never pay for another phase's collection.
			runtime.GC()
			last = pick
		}
		rt0, t0 := readRuntime(), time.Now()
		if err := ds[pick].step(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", plan[pick].name, err)
		}
		res[pick].elapsed += time.Since(t0)
		res[pick].rt = res[pick].rt.plus(readRuntime().minus(rt0))
		res[pick].units++
		if probe {
			s, err := b.setUp()
			if err != nil {
				return nil, nil, fmt.Errorf("set-up probe: %w", err)
			}
			setups = append(setups, s)
		}
	}
	for i, d := range ds {
		r := d.result()
		r.elapsed, r.rt, r.units = res[i].elapsed, res[i].rt, res[i].units
		res[i] = r
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d units in %.1fs\n", plan[i].name, r.units, r.elapsed.Seconds())
	}
	return res, setups, nil
}

// setUpRepeats is how many whole set-ups one probe makes.
const setUpRepeats = 4

// setUp is one set-up probe: the mean time of setUpRepeats whole
// set-ups of the three user paths, each what a user pays before the
// first result — the sweep's runner.New, the interactive Engine, and the
// service's Engine over a cache directory of the serve pool's results,
// listener and first round trip. One set-up takes about a millisecond
// and a single one spreads widely, so a probe averages a few; setup_s
// is the median over the run's probes.
func (b *bench) setUp() (float64, error) {
	var total time.Duration
	for range setUpRepeats {
		t0 := time.Now()
		if _, err := runner.New(runner.Options{Workers: b.nproc}); err != nil {
			return 0, err
		}
		if _, err := daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc, Parallel: b.nproc}); err != nil {
			return 0, err
		}
		s, err := b.startServer(b.serve.setupDir)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		s.close()
	}
	return total.Seconds() / setUpRepeats, nil
}

// runUntraced runs the three phases interleaved for --seconds, each for
// its workload's share of the time, so every end-to-end metric is present
// on every workload. setup_s is the median of the set-up probes made
// between the units. A run recording pins makes exactly every phase's
// minimum units, the requests pins.json covers.
func (b *bench) runUntraced() error {
	var plan []planned
	for _, ph := range b.phases() {
		plan = append(plan, planned{ph, phaseShares[b.workload][ph.name], ph.minUnits})
	}
	budget := b.seconds
	if b.gate.record != nil {
		budget = 0
	}
	results, setups, err := b.runPhases(plan, budget, true)
	if err != nil {
		return err
	}
	for _, r := range results {
		for k, v := range r.e2e {
			b.e2e[k] = v
		}
	}
	b.e2e["setup_s"] = metric{median(setups), "s"}
	b.samples["setup"] = len(setups)
	b.e2e["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	g := b.gate
	g.mu.Lock()
	b.e2e["ok_frac"] = metric{1 - float64(g.failed)/float64(max(g.attempted, 1)), "frac"}
	g.mu.Unlock()
	return nil
}

// printTable writes every metric, one per line, ahead of the JSON line.
func printTable(r *resultFile) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed=%d trace=%v (model unvalidated against hardware)\n", r.Workload, r.Seed, r.Trace)
	for _, k := range names {
		m := r.Metrics[k]
		extra := ""
		if t, ok := r.Tails[k]; ok {
			extra = "  (" + t + ")"
		}
		fmt.Printf("  %-34s %16.6g %-8s%s\n", k, m.Value, m.Unit, extra)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}

// rng returns the phase's deterministic input stream, derived from the
// seed alone; a phase run twice in one process continues its stream.
func (b *bench) rng(phase string) *rand.Rand {
	r, ok := b.rngs[phase]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(phase))
		r = rand.New(rand.NewPCG(b.seed, h.Sum64()))
		b.rngs[phase] = r
	}
	return r
}

// latencies records a latency sample set as a p50 and a tail metric at
// the fixed percentile tailQuantile(n) of all the samples, noting the
// sample count and the tail's percentile.
func (b *bench) latencies(e2e map[string]metric, prefix string, ms []float64, n int) {
	q := tailQuantile(n)
	e2e[prefix+"_ms_p50"] = metric{median(ms), "ms"}
	e2e[prefix+"_ms_tail"] = metric{quantile(ms, q), "ms"}
	b.samples[prefix] = len(ms)
	b.tails[prefix+"_ms_tail"] = fmt.Sprintf("p%.4g, the tail at a sample count of %d, over n=%d samples",
		100*q, n, len(ms))
}

// Command dae-sweep regenerates the paper's figures and the repository's
// ablation studies as text tables, executing every sweep through the
// batch runner so figures that share simulation points compute them
// once.
//
// Usage:
//
//	dae-sweep -fig list                # enumerate every figure/ablation
//	dae-sweep -fig all                 # everything (minutes)
//	dae-sweep -fig 1a|1b|1c|1d         # Figure 1 panels (Section-2 machine)
//	dae-sweep -fig 3                   # Figure 3 issue-slot breakdown
//	dae-sweep -fig 4a|4b|4c            # Figure 4 latency tolerance
//	dae-sweep -fig 5                   # Figure 5 thread requirements
//	dae-sweep -fig a1..a7              # ablations
//	dae-sweep -fig i1                  # shared-L2 interference study
//	dae-sweep -fig c1                  # CMP scaling study (multi-core)
//	dae-sweep -fig d1                  # speculative-DAE study
//	dae-sweep -fig 1d -measure 2000000 # bigger budget per thread
//	dae-sweep -fig all -cache .sweeps  # persist results; re-runs and
//	                                   # crashed sweeps resume from disk
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	fig      string
	budget   experiments.Budget
	parallel int
	csvDir   string
	cacheDir string
	hashFile string
	progress bool
	jsonOut  bool
}

// parseArgs parses the command line into options. Errors are already
// reported on stderr when it returns one (flag.Parse prints its own).
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("dae-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "which figure/ablation to regenerate ('list' enumerates them; 'all' runs everything)")
		warmup   = fs.Int64("warmup", 0, "warm-up instructions per thread (0 = default)")
		measure  = fs.Int64("measure", 0, "measured instructions per thread (0 = default)")
		seed     = fs.Uint64("seed", 0, "workload seed")
		workers  = fs.Int("workers", 0, "parallel simulations (0 = all cores)")
		parallel = fs.Int("parallel", 0, "let each eligible multi-core point (flat or private-L2 machine, no shared L2) also use up to N goroutines for its own cores (epoch-parallel, bit-identical results; workers are budgeted from the shared -workers pool)")
		csvDir   = fs.String("csv", "", "also write raw results as CSV files into this directory")
		cacheDir = fs.String("cache", "", "on-disk result cache directory: re-runs skip already-computed points and interrupted sweeps resume")
		hashFile = fs.String("hashfile", "", "write the sorted result content hashes (one 'jobhash reporthash key' line per point) to this file; two runs of the same sweep must produce identical files (the CI determinism gate)")
		progress = fs.Bool("progress", false, "report per-point progress on stderr")
		jsonOut  = fs.Bool("json", false, "stream one JSON object per completed point to stdout (key, hash, cached, report) instead of the text tables; diagnostics and -progress stay on stderr, so stdout remains machine-parseable")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return options{}, err
	}

	budget := experiments.DefaultBudget()
	if *warmup > 0 {
		budget.WarmupPerThread = *warmup
	}
	if *measure > 0 {
		budget.MeasurePerThread = *measure
	}
	budget.Seed = *seed
	budget.Parallelism = *workers

	return options{
		fig:      strings.ToLower(*fig),
		budget:   budget,
		parallel: *parallel,
		csvDir:   *csvDir,
		cacheDir: *cacheDir,
		hashFile: *hashFile,
		progress: *progress,
		jsonOut:  *jsonOut,
	}, nil
}

// pointRecord is one line of the -json stream.
type pointRecord struct {
	// Key is the point's human-readable label and Hash its canonical
	// content hash (shared with dae-sim -hash and dae-serve).
	Key  string `json:"key"`
	Hash string `json:"hash,omitempty"`
	// Cached reports whether the point was served without simulating.
	Cached bool `json:"cached"`
	// Report is the result (absent on error).
	Report *stats.Report `json:"report,omitempty"`
	// Error is the point's failure, if any.
	Error string `json:"error,omitempty"`
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// The catalog listing needs no runner and must reach stdout even
	// under -json (which discards table output).
	if opts.fig == "list" {
		listFigures(stdout)
		return 0
	}
	if opts.csvDir != "" {
		if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "dae-sweep:", err)
			return 1
		}
	}

	// Ctrl-C cancels the sweep; with -cache, a re-run resumes from the
	// completed points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.budget.Ctx = ctx

	// One runner serves every figure of the invocation, so points shared
	// between sweeps (fig3's thread axis inside fig5's L2=16 curve)
	// simulate once; a cache directory extends that reuse across
	// invocations.
	ropts := runner.Options{Workers: opts.budget.Parallelism, Parallel: opts.parallel, CacheDir: opts.cacheDir}
	// The per-point callback serializes under the batch lock, so the
	// human -progress lines (stderr) and the machine-parseable -json
	// stream (stdout) never interleave mid-record. The two streams are
	// strictly separated: stdout carries only tables or JSON.
	var jsonErr error
	enc := json.NewEncoder(stdout)
	ropts.OnProgress = func(p runner.Progress) {
		if opts.progress {
			switch {
			case p.Err != nil:
				fmt.Fprintf(stderr, "[%d/%d] FAIL %s: %v\n", p.Done, p.Total, p.Job.Key, p.Err)
			case p.Cached:
				fmt.Fprintf(stderr, "[%d/%d] cached %s\n", p.Done, p.Total, p.Job.Key)
			default:
				fmt.Fprintf(stderr, "[%d/%d] done %s\n", p.Done, p.Total, p.Job.Key)
			}
		}
		if opts.jsonOut {
			rec := pointRecord{Key: p.Job.Key, Hash: p.Hash, Cached: p.Cached}
			if p.Err != nil {
				rec.Error = p.Err.Error()
			} else {
				rep := p.Report
				rec.Report = &rep
			}
			if err := enc.Encode(rec); err != nil && jsonErr == nil {
				jsonErr = err
			}
		}
	}
	if !opts.progress && !opts.jsonOut {
		ropts.OnProgress = nil
	}
	r, err := runner.New(ropts)
	if err != nil {
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return 1
	}
	opts.budget.Runner = r

	// With -json the text tables are suppressed: stdout is the record
	// stream.
	tableOut := stdout
	if opts.jsonOut {
		tableOut = io.Discard
	}
	if err := sweep(opts.fig, opts.budget, opts.csvDir, tableOut, stderr); err != nil {
		fmt.Fprintln(stderr, "dae-sweep:", err)
		return 1
	}
	if jsonErr != nil {
		fmt.Fprintln(stderr, "dae-sweep:", jsonErr)
		return 1
	}
	if opts.hashFile != "" {
		if err := writeHashFile(opts.hashFile, r, stderr); err != nil {
			fmt.Fprintln(stderr, "dae-sweep:", err)
			return 1
		}
	}
	if opts.progress {
		s := r.Stats()
		fmt.Fprintf(stderr, "sweep: %d simulated, %d cache hits\n", s.Simulated, s.CacheHits)
	}
	return 0
}

// writeHashFile dumps the runner's result content hashes for the
// determinism gate.
func writeHashFile(path string, r *runner.Runner, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := r.WriteHashes(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d result hashes to %s\n", n, path)
	return nil
}

// csvWriter is implemented by every experiment result.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

// saveCSV writes one result's raw data when a CSV directory is set.
func saveCSV(dir, name string, r csvWriter, stderr io.Writer) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", filepath.Join(dir, name))
	return nil
}

// figureCatalog names every selectable figure and ablation with a
// one-line description; `-fig list` prints it and the unknown-figure
// error points at it.
var figureCatalog = []struct{ key, desc string }{
	{"1a", "Figure 1-a: average perceived FP-load miss latency vs L2 latency (Section-2 machine)"},
	{"1b", "Figure 1-b: average perceived integer-load miss latency vs L2 latency"},
	{"1c", "Figure 1-c: per-benchmark L1 miss ratios at L2 latency 256"},
	{"1d", "Figure 1-d: IPC loss vs L2 latency, relative to the 1-cycle point"},
	{"3", "Figure 3: AP/EP issue-slot breakdown vs hardware contexts (L2=16)"},
	{"4a", "Figure 4-a: perceived load-miss latency vs L2 latency, 4 configurations"},
	{"4b", "Figure 4-b: IPC loss vs L2 latency, 4 configurations"},
	{"4c", "Figure 4-c: absolute IPC vs L2 latency, 4 configurations"},
	{"5", "Figure 5: IPC vs contexts at L2 16/64 — decoupling cuts thread requirements"},
	{"a1", "Ablation A1: per-unit issue widths (4 threads, L2=16)"},
	{"a2", "Ablation A2: ICOUNT vs round-robin fetch (4 threads, L2=16)"},
	{"a3", "Ablation A3: L1 associativity (4 threads, L2=16)"},
	{"a4", "Ablation A4: SAQ store-to-load forwarding (4 threads, L2=16)"},
	{"a5", "Ablation A5: MSHR count and bus width (4 threads, L2=64)"},
	{"a6", "Ablation A6: fixed vs latency-scaled buffering (4 threads, L2=256)"},
	{"a7", "Ablation A7: issue priority and branch predictor (4 threads, L2=16)"},
	{"i1", "Ablation I1: shared-L2 interference — IPC and per-thread L2 miss ratio vs contexts at several finite L2 sizes (L2+DRAM hierarchy)"},
	{"c1", "Figure C1: CMP scaling — aggregate IPC vs cores × contexts, shared vs private L2, cross-core interference"},
	{"s1", "Study S1: sampled vs exact — IPC error, confidence intervals and wall-clock speedup on the four figure configs"},
	{"d1", "Figure D1: speculative-DAE — IPC vs contexts × speculation aggressiveness × loss-of-decoupling rate (L2=64)"},
}

// listFigures renders the catalog.
func listFigures(w io.Writer) {
	fmt.Fprintln(w, "figures and ablations (-fig <key>, grouped keys like '1' or '4' select every panel):")
	for _, f := range figureCatalog {
		fmt.Fprintf(w, "  %-4s %s\n", f.key, f.desc)
	}
	fmt.Fprintln(w, "  all  every figure and ablation above")
}

// figureKeys returns the comma-joined catalog keys (for error text).
func figureKeys() string {
	keys := make([]string, len(figureCatalog))
	for i, f := range figureCatalog {
		keys[i] = f.key
	}
	return strings.Join(keys, ",")
}

// knownFigure reports whether fig selects something: a catalog key, a
// panel group ("1", "4") or the catch-all ("list" never reaches here —
// run() intercepts it before building a runner). The catalog is the
// single source of truth for selectable keys — a new sweep branch below
// is unreachable until its key is registered there, which is what keeps
// `-fig list` and the dispatch from drifting apart.
func knownFigure(fig string) bool {
	switch fig {
	case "all", "1", "4":
		return true
	}
	for _, f := range figureCatalog {
		if fig == f.key {
			return true
		}
	}
	return false
}

func sweep(fig string, budget experiments.Budget, csvDir string, stdout, stderr io.Writer) error {
	if !knownFigure(fig) {
		return fmt.Errorf("unknown figure %q (known: %s,all — run -fig list for descriptions)", fig, figureKeys())
	}
	want := func(keys ...string) bool {
		if fig == "all" {
			return true
		}
		for _, k := range keys {
			if fig == k {
				return true
			}
		}
		return false
	}

	if want("1a", "1b", "1c", "1d", "1") {
		r, err := experiments.Fig1(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "fig1.csv", r, stderr); err != nil {
			return err
		}
		if want("1a", "1") {
			fmt.Fprintln(stdout, r.TableA())
		}
		if want("1b", "1") {
			fmt.Fprintln(stdout, r.TableB())
		}
		if want("1c", "1") {
			fmt.Fprintln(stdout, r.TableC())
		}
		if want("1d", "1") {
			fmt.Fprintln(stdout, r.TableD())
		}
	}
	if want("3") {
		r, err := experiments.Fig3(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "fig3.csv", r, stderr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Table())
		fmt.Fprintf(stdout, "speedup 1→3 threads: %.2fx (paper: 2.31x)\n\n", r.Speedup(3))
	}
	if want("4a", "4b", "4c", "4") {
		r, err := experiments.Fig4(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "fig4.csv", r, stderr); err != nil {
			return err
		}
		if want("4a", "4") {
			fmt.Fprintln(stdout, r.TableA())
		}
		if want("4b", "4") {
			fmt.Fprintln(stdout, r.TableB())
		}
		if want("4c", "4") {
			fmt.Fprintln(stdout, r.TableC())
		}
	}
	if want("5") {
		r, err := experiments.Fig5(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "fig5.csv", r, stderr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Table())
	}

	ablations := []struct {
		key string
		run func(experiments.Budget) (*experiments.AblationResult, error)
	}{
		{"a1", experiments.AblationUnitWidths},
		{"a2", experiments.AblationFetchPolicy},
		{"a3", experiments.AblationAssoc},
		{"a4", experiments.AblationForwarding},
		{"a5", experiments.AblationMemory},
		{"a6", experiments.AblationScaling},
		{"a7", experiments.AblationPolicies},
	}
	for _, a := range ablations {
		if want(a.key) {
			r, err := a.run(budget)
			if err != nil {
				return err
			}
			if err := saveCSV(csvDir, a.key+".csv", r, stderr); err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Table())
		}
	}
	if want("i1") {
		r, err := experiments.Interference(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "i1.csv", r, stderr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Table())
	}
	if want("c1") {
		r, err := experiments.C1(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "c1.csv", r, stderr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Table())
	}
	if want("s1") {
		r, err := experiments.S1(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "s1.csv", r, stderr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Table())
	}
	if want("d1") {
		r, err := experiments.D1(budget)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "d1.csv", r, stderr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Table())
	}
	return nil
}

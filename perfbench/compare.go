package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The A/B comparer applies the choosing-metrics rule for a change
// against its parent: at least ten interleaved parent/change pairs with
// alternating order, each side summarized by its median and quartiles,
// a gain claimed only when the change wins at least nine tenths of the
// pairs (ties count for neither) and the medians differ by more than the
// parent's interquartile range, a regression when the change's median is
// worse than the parent's by more than the metric's bound, and
// "unresolved" when run-to-run spread exceeds the bound — unless every
// change run reads better than every parent run. Each workload is its
// own row. Outputs are judged before timings: a workload where any
// change run is incorrect, or where more of the change's operations
// fail than the parent's, regresses on its "outputs" row and claims no
// gain on any other. Results measured on different hosts are
// refused.

// minPairs is the least number of pairs a row needs for a verdict.
const minPairs = 10

// specMetric is one end_to_end entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string     `json:"command"`
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	Workload, Metric string
	Pairs            int
	Parent, Change   [3]float64 // q1, median, q3
	Wins, Losses     int
	Verdict          string
}

// compareRows pairs parent[i] with change[i] per workload and judges
// every end-to-end metric of the spec.
func compareRows(sp spec, parent, change []resultFile) ([]verdict, error) {
	if len(parent) != len(change) {
		return nil, fmt.Errorf("%d parent results but %d change results", len(parent), len(change))
	}
	var host *Fingerprint
	byWorkload := make(map[string][][2]resultFile)
	for i := range parent {
		for _, r := range []resultFile{parent[i], change[i]} {
			if host == nil {
				h := r.Host
				host = &h
			} else if r.Host != *host {
				return nil, fmt.Errorf("results from different hosts (%+v vs %+v): not comparable", *host, r.Host)
			}
			if r.Trace {
				return nil, fmt.Errorf("traced results carry no end-to-end metrics")
			}
		}
		if parent[i].Workload != change[i].Workload {
			return nil, fmt.Errorf("pair %d mixes workloads %s and %s", i, parent[i].Workload, change[i].Workload)
		}
		w := parent[i].Workload
		byWorkload[w] = append(byWorkload[w], [2]resultFile{parent[i], change[i]})
	}
	workloads := make([]string, 0, len(byWorkload))
	for w := range byWorkload {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	var out []verdict
	for _, w := range workloads {
		pairs := byWorkload[w]
		ov := judgeOutputs(w, pairs)
		out = append(out, ov)
		for _, m := range sp.EndToEnd {
			var p, c []float64
			for _, pr := range pairs {
				pv, ok1 := pr[0].Metrics[m.Name]
				cv, ok2 := pr[1].Metrics[m.Name]
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("%s: metric %s missing from a result", w, m.Name)
				}
				p = append(p, pv.Value)
				c = append(c, cv.Value)
			}
			v := judge(w, m, p, c)
			if ov.Verdict == "regression" && (v.Verdict == "gain" || v.Verdict == "better in every run") {
				v.Verdict = "gain withheld: outputs regressed"
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// judgeOutputs is a workload's "outputs" row: a regression when any
// change run is incorrect or more operations fail in the change's runs
// than in the parent's (both sides run the same seeds, so the same
// operations). Its quartiles are of failed counts.
func judgeOutputs(workload string, pairs [][2]resultFile) verdict {
	v := verdict{Workload: workload, Metric: "outputs", Pairs: len(pairs), Verdict: "no regression"}
	var pFail, cFail []float64
	var pf, cf, incorrect int
	for _, pr := range pairs {
		pFail = append(pFail, float64(pr[0].Failed))
		cFail = append(cFail, float64(pr[1].Failed))
		pf += pr[0].Failed
		cf += pr[1].Failed
		if !pr[1].Correct {
			incorrect++
		}
	}
	v.Parent[0], v.Parent[1], v.Parent[2] = quartiles(pFail)
	v.Change[0], v.Change[1], v.Change[2] = quartiles(cFail)
	if incorrect > 0 || cf > pf {
		v.Verdict = "regression"
	}
	return v
}

// judge applies the rule to one metric's paired values.
func judge(workload string, m specMetric, p, c []float64) verdict {
	v := verdict{Workload: workload, Metric: m.Name, Pairs: len(p)}
	v.Parent[0], v.Parent[1], v.Parent[2] = quartiles(p)
	v.Change[0], v.Change[1], v.Change[2] = quartiles(c)
	// better(a, b) reports whether a reads better than b.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range p {
		switch {
		case better(c[i], p[i]):
			v.Wins++
		case better(p[i], c[i]):
			v.Losses++
		}
	}
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	medP, medC := v.Parent[1], v.Change[1]
	worse := (medC - medP) / math.Abs(medP)
	if m.Better == "higher" {
		worse = -worse
	}
	noisy := spread(p) > m.Bound || spread(c) > m.Bound
	switch {
	case len(p) < minPairs:
		v.Verdict = fmt.Sprintf("too few pairs (%d < %d)", len(p), minPairs)
	case 10*v.Wins >= 9*len(p) && better(medC, medP) && math.Abs(medC-medP) > v.Parent[2]-v.Parent[0]:
		v.Verdict = "gain"
	case noisy && allBetter:
		v.Verdict = "better in every run"
	case noisy:
		v.Verdict = "unresolved"
	case worse > m.Bound:
		v.Verdict = "regression"
	default:
		v.Verdict = "no regression"
	}
	return v
}

func readResults(list string) ([]resultFile, error) {
	var out []resultFile
	for _, p := range strings.Split(list, ",") {
		if p == "" {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func readSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	err = json.Unmarshal(raw, &sp)
	return sp, err
}

// printVerdicts writes the comparison table and returns the exit code:
// 1 when any row regressed or is unresolved, else 0.
func printVerdicts(vs []verdict) int {
	code := 0
	fmt.Printf("%-12s %-16s %5s %28s %28s %5s  %s\n", "workload", "metric", "pairs",
		"parent q1/med/q3", "change q1/med/q3", "wins", "verdict")
	for _, v := range vs {
		fmt.Printf("%-12s %-16s %5d %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %2d/%-2d  %s\n",
			v.Workload, v.Metric, v.Pairs, v.Parent[0], v.Parent[1], v.Parent[2],
			v.Change[0], v.Change[1], v.Change[2], v.Wins, v.Pairs, v.Verdict)
		if v.Verdict == "regression" || v.Verdict == "unresolved" || strings.HasPrefix(v.Verdict, "too few") {
			code = 1
		}
	}
	return code
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec with the metrics' bounds")
	parent := fs.String("parent", "", "comma-separated parent result files (--out), pair order")
	change := fs.String("change", "", "comma-separated change result files, same order")
	fs.Parse(args)
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	p, err := readResults(*parent)
	if err == nil {
		var c []resultFile
		if c, err = readResults(*change); err == nil {
			var vs []verdict
			if vs, err = compareRows(sp, p, c); err == nil {
				return printVerdicts(vs)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

// abMain runs interleaved pairs of the benchmark in two checkouts —
// pair i runs the parent first when i is even and the change first when
// it is odd, both sides on seed base+i — and compares the results.
// Every run measures BENCHMARK.json's run_seconds, the length its bounds
// were set at.
func abMain(args []string) int {
	fs := flag.NewFlagSet("perfbench ab", flag.ExitOnError)
	parentDir := fs.String("parent", "", "checkout of the parent commit")
	changeDir := fs.String("change", ".", "checkout of the change")
	workloads := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	pairs := fs.Int("pairs", minPairs, "pairs per workload")
	seedBase := fs.Uint64("seed-base", 100, "pair i runs seed seed-base+i")
	fs.Parse(args)
	if *parentDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench ab: -parent is required")
		return 2
	}
	outDir, err := filepath.Abs(filepath.Join(*changeDir, ".bench_build", "ab"))
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 2
	}
	sp, err := readSpec(filepath.Join(*changeDir, "BENCHMARK.json"))
	if err == nil && (len(sp.Command) == 0 || sp.RunSeconds < 1) {
		err = errors.New("BENCHMARK.json needs a command and run_seconds >= 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 2
	}
	var parent, change []string
	for _, w := range strings.Split(*workloads, ",") {
		for i := range *pairs {
			seed := *seedBase + uint64(i)
			sides := []struct {
				name, dir string
				list      *[]string
			}{{"parent", *parentDir, &parent}, {"change", *changeDir, &change}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				out := filepath.Join(outDir, fmt.Sprintf("%s-%s-%d.json", s.name, w, seed))
				cmd := exec.Command(sp.Command[0], append(sp.Command[1:],
					"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(sp.RunSeconds),
					"--trace", "0", "--out", out)...)
				cmd.Dir = s.dir
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench ab: %s %s seed %d: %v\n", s.name, w, seed, err)
					return 2
				}
				*s.list = append(*s.list, out)
			}
		}
	}
	return compareMain([]string{"-spec", filepath.Join(*changeDir, "BENCHMARK.json"),
		"-parent", strings.Join(parent, ","), "-change", strings.Join(change, ",")})
}

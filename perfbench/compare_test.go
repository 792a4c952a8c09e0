package main

import (
	"strings"
	"testing"
)

var latency = specMetric{Name: "cached_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
var throughput = specMetric{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}

func series(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

var jitter = []float64{0, 0.1, -0.1, 0.2, -0.2, 0.05, -0.05, 0.15, -0.15, 0}

func TestJudgeGainNeedsNineTenths(t *testing.T) {
	parent := series(10, jitter...)
	change := series(9, jitter...) // every pair won
	if v := judge("w", latency, parent, change); v.Verdict != "gain" || v.Wins != 10 {
		t.Fatalf("clear win: %+v", v)
	}
	// Two pairs lost: 8/10 is below the rule, even with a better median.
	change[0], change[1] = 11, 11
	if v := judge("w", latency, parent, change); v.Verdict == "gain" || v.Wins != 8 || v.Losses != 2 {
		t.Fatalf("8/10 wins judged %+v", v)
	}
}

func TestJudgeTiesCountForNeither(t *testing.T) {
	parent := series(10, jitter...)
	change := append([]float64(nil), parent...)
	v := judge("w", throughput, parent, change)
	if v.Wins != 0 || v.Losses != 0 || v.Verdict != "no regression" {
		t.Fatalf("identical runs: %+v", v)
	}
}

func TestJudgeGainNeedsMediansApartByParentIQR(t *testing.T) {
	parent := series(10, jitter...)
	// Wins every pair by a hair: the medians differ by less than the
	// parent's interquartile range, so no gain is claimed.
	change := series(9.99, jitter...)
	if v := judge("w", latency, parent, change); v.Verdict == "gain" {
		t.Fatalf("hairline win claimed: %+v", v)
	}
}

func TestJudgeRegressionAndDirection(t *testing.T) {
	parent := series(100, jitter...)
	if v := judge("w", throughput, parent, series(85, jitter...)); v.Verdict != "regression" {
		t.Fatalf("15%% lower throughput: %+v", v)
	}
	if v := judge("w", throughput, parent, series(95, jitter...)); v.Verdict != "no regression" {
		t.Fatalf("5%% lower throughput within a 10%% bound: %+v", v)
	}
	if v := judge("w", latency, parent, series(115, jitter...)); v.Verdict != "regression" {
		t.Fatalf("15%% higher latency: %+v", v)
	}
}

func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	wide := []float64{0, 30, -30, 20, -20, 25, -25, 10, -10, 5}
	parent := series(100, wide...)
	change := series(104, wide...)
	if v := judge("w", latency, parent, change); v.Verdict != "unresolved" {
		t.Fatalf("noisy metric: %+v", v)
	}
	// Unless every change run reads better than every parent run.
	change = series(10, jitter...)
	if v := judge("w", latency, series(100, wide...), change); v.Verdict != "gain" {
		t.Fatalf("separated runs: %+v", v)
	}
}

func TestJudgeTooFewPairs(t *testing.T) {
	if v := judge("w", latency, []float64{1, 2, 3}, []float64{1, 2, 3}); !strings.HasPrefix(v.Verdict, "too few") {
		t.Fatalf("3 pairs: %+v", v)
	}
}

func result(workload string, host Fingerprint, vals map[string]float64) resultFile {
	r := resultFile{Workload: workload, Host: host}
	r.Correct, r.Attempted = true, 1000
	r.Metrics = make(map[string]metric)
	for k, v := range vals {
		r.Metrics[k] = metric{Value: v}
	}
	return r
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	a := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.24.0", CPUModel: "x"}
	b := a
	b.NumCPU = 1
	sp := spec{EndToEnd: []specMetric{latency}}
	_, err := compareRows(sp,
		[]resultFile{result("w", a, map[string]float64{"cached_ms_p50": 1})},
		[]resultFile{result("w", b, map[string]float64{"cached_ms_p50": 1})})
	if err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("cross-host compare: %v", err)
	}
}

func TestCompareRowsPerWorkload(t *testing.T) {
	host := Fingerprint{NumCPU: 2}
	sp := spec{EndToEnd: []specMetric{latency}}
	var parent, change []resultFile
	for i := range 10 {
		for _, w := range []string{"a", "b"} {
			parent = append(parent, result(w, host, map[string]float64{"cached_ms_p50": 10 + jitter[i]}))
			change = append(change, result(w, host, map[string]float64{"cached_ms_p50": 10 + jitter[i]}))
		}
	}
	vs, err := compareRows(sp, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	// Each workload has an outputs row, then one row per metric.
	if len(vs) != 4 || vs[0].Workload != "a" || vs[2].Workload != "b" || vs[1].Pairs != 10 ||
		vs[0].Metric != "outputs" || vs[0].Verdict != "no regression" || vs[1].Verdict != "no regression" {
		t.Fatalf("rows: %+v", vs)
	}
}

// clearGain is ten pairs in which the change wins cached_ms_p50 outright.
func clearGain() (parent, change []resultFile) {
	host := Fingerprint{NumCPU: 2}
	for i := range 10 {
		parent = append(parent, result("w", host, map[string]float64{"cached_ms_p50": 10 + jitter[i]}))
		change = append(change, result("w", host, map[string]float64{"cached_ms_p50": 9 + jitter[i]}))
	}
	return parent, change
}

func TestCompareFailuresRegressAndWithholdGain(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{latency}}
	parent, change := clearGain()
	vs, err := compareRows(sp, parent, change)
	if err != nil || vs[0].Verdict != "no regression" || vs[1].Verdict != "gain" {
		t.Fatalf("clean gain: %v %+v", err, vs)
	}
	// One failed operation in one of ten change runs: the median of
	// every metric is untouched, yet the outputs regressed.
	parent, change = clearGain()
	change[3].Failed = 1
	vs, _ = compareRows(sp, parent, change)
	if vs[0].Verdict != "regression" || vs[1].Verdict == "gain" {
		t.Fatalf("one failure in one run: %+v", vs)
	}
	if printVerdicts(vs) != 1 {
		t.Fatal("an outputs regression must fail the comparison")
	}
	// A run marked incorrect regresses even with no failed operation
	// (a pinned request that was never made).
	parent, change = clearGain()
	change[7].Correct = false
	if vs, _ = compareRows(sp, parent, change); vs[0].Verdict != "regression" {
		t.Fatalf("incorrect run: %+v", vs)
	}
	// Failing no more often than the parent is no regression.
	parent, change = clearGain()
	parent[1].Failed, change[2].Failed = 2, 2
	if vs, _ = compareRows(sp, parent, change); vs[0].Verdict != "no regression" || vs[1].Verdict != "gain" {
		t.Fatalf("equal failure share: %+v", vs)
	}
}

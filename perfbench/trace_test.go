package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "client.post", Start: 0, End: 100},
		// Two overlapping children cover [10, 60) of the parent.
		{ID: 2, Parent: 1, Name: "serveapi.handler", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "serveapi.handler", Start: 30, End: 60},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	if got := self["client.post"]; got != [2]int64{100 - 50 - 10, 1} {
		t.Fatalf("client.post self = %v, want [40 1]", got)
	}
	if got := self["serveapi.handler"]; got != [2]int64{40 + 30, 2} {
		t.Fatalf("handler self = %v", got)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	tr.end(id)
	if id != 0 {
		t.Fatal("nil tracer returned a span id")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"repro/internal/core.(*Core).fetchThread", "/src/internal/core/core.go", "fetch"},
		{"repro/internal/core.(*Core).graduate", "/src/internal/core/core.go", "graduate"},
		{"repro/internal/core.(*Core).issueMerged", "/src/internal/core/issue.go", "issue"},
		{"repro/internal/core.(*calendar).schedule", "/src/internal/core/calendar.go", "calendar"},
		{"repro/internal/core.(*EpochRunner).RunEpoch", "/src/internal/core/epoch.go", "epoch"},
		{"repro/internal/mem.(*System).Access", "/src/internal/mem/mem.go", "mem"},
		{"repro/internal/workload.(*generator).Next", "/src/internal/workload/workload.go", "workload"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"repro/internal/queue.(*Ring).Push", "/src/internal/queue/queue.go", ""},
	}
	for _, c := range cases {
		if got := bucketOf(c.fn, c.file); got != c.want {
			t.Errorf("bucketOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// A real CPU profile of a simulation decodes, and its samples land in
// the pipeline's buckets.
func TestProfileSharesOfASimulation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("profiles a simulation without the race detector")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		c, err := core.New(config.Figure2(2), workload.MixSources(2, workload.MixOpts{Seed: 5}))
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		for c.Collector().Graduated < 50_000 {
			c.Step(1 << 50)
		}
	}
	pprof.StopCPUProfile()
	shares, cpu, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Fatal("no CPU time in the profile")
	}
	var pipeline, total float64
	for k, v := range shares {
		total += v
		switch k {
		case "fetch", "dispatch", "issue", "graduate", "cache_access", "mem", "workload":
			pipeline += v
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	if pipeline < 0.5 {
		t.Fatalf("pipeline buckets hold %.2f of a simulation's samples: %v", pipeline, shares)
	}
}

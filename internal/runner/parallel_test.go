package runner

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

// cmpMixJob builds a quick multi-core private-L2 mix job
// (epoch-parallel eligible).
func cmpMixJob(key string, cores int) Job {
	return Job{
		Key: key,
		Machine: config.Figure2(1).WithCores(cores).
			WithHierarchy(64, config.SharedL2(256<<10, 8)).WithPrivateHierarchy(),
		Workload: MixWorkload(0, 0),
		Budget:   testBudget(),
	}
}

// TestGrabIntraSlots pins the shared-budget sizing rules: intra-run
// workers come from the same semaphore as cross-job concurrency, are
// capped at min(cores, Options.Parallel)-1 extras, never block, and
// are refused entirely for ineligible jobs.
func TestGrabIntraSlots(t *testing.T) {
	cmp4 := cmpMixJob("cmp4", 4)
	shared4 := cmpMixJob("shared4", 4)
	shared4.Machine.Mem.PrivateHierarchy = false
	cases := []struct {
		name     string
		workers  int
		parallel int
		held     int // slots already occupied (beyond the job's own)
		job      Job
		want     int
	}{
		{"full budget", 8, 8, 0, cmp4, 3},   // min(4 cores, 8)-1
		{"parallel caps", 8, 2, 0, cmp4, 1}, // min(4, 2)-1
		{"budget shared", 4, 4, 2, cmp4, 1}, // only 1 slot free
		{"one slot free means serial", 4, 4, 3, cmp4, 0},
		{"parallel off", 8, 0, 0, cmp4, 0},
		{"single core", 8, 8, 0, mixJob("1c", 2, 0), 0},
		{"shared L2", 8, 8, 0, shared4, 0},
		{"caller preset", 8, 8, 0, func() Job { j := cmpMixJob("preset", 4); j.Parallel = 2; return j }(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mustRunner(t, Options{Workers: tc.workers, Parallel: tc.parallel})
			r.sem <- struct{}{} // the job's own slot, held by its worker
			for i := 0; i < tc.held; i++ {
				r.sem <- struct{}{}
			}
			got := r.grabIntraSlots(tc.job)
			if got != tc.want {
				t.Fatalf("grabIntraSlots = %d extras, want %d", got, tc.want)
			}
			r.releaseSlots(got)
			if free := cap(r.sem) - len(r.sem); free != tc.workers-1-tc.held {
				t.Fatalf("slot leak: %d free after release, want %d", free, tc.workers-1-tc.held)
			}
		})
	}
}

// TestTraceJobsStaySerial: trace workloads withhold the disjoint
// address-space promise, so they must never be granted intra-run
// workers.
func TestTraceJobsStaySerial(t *testing.T) {
	r := mustRunner(t, Options{Workers: 8, Parallel: 8})
	j := cmpMixJob("trace", 4)
	j.Workload = TraceWorkload("/tmp/x.dct", "")
	r.sem <- struct{}{}
	if got := r.grabIntraSlots(j); got != 0 {
		t.Fatalf("trace job granted %d intra-run workers", got)
	}
}

// TestParallelRunnerBitIdentical: a batch run through a Parallel-enabled
// runner produces byte-identical reports (and hashes) to a serial one —
// the end-to-end form of the epoch equivalence guarantee at the runner
// layer, cache and all.
func TestParallelRunnerBitIdentical(t *testing.T) {
	flat := cmpMixJob("flat4", 4)
	flat.Machine = config.Figure2(1).WithCores(4)
	jobs := []Job{cmpMixJob("cmp2", 2), cmpMixJob("cmp4", 4), flat, mixJob("mix-2t", 2, 0)}

	serial := mustRunner(t, Options{Workers: 1})
	sres, err := serial.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	par := mustRunner(t, Options{Workers: 4, Parallel: 4})
	pres, err := par.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if sres[i].Hash != pres[i].Hash {
			t.Fatalf("job %q: hash changed under Parallel (%s vs %s)",
				jobs[i].Key, sres[i].Hash, pres[i].Hash)
		}
		if !reflect.DeepEqual(sres[i].Report, pres[i].Report) {
			t.Fatalf("job %q: report diverged under Parallel\nserial:   %+v\nparallel: %+v",
				jobs[i].Key, sres[i].Report, pres[i].Report)
		}
	}
}

package main

import (
	"context"
	"testing"

	daesim "repro"
	"repro/internal/runner"
	"repro/internal/stats"
)

// smallReport simulates a tiny request and returns it with its report.
func smallReport(t *testing.T) (daesim.Request, stats.Report) {
	t.Helper()
	req := daesim.MixRequest(daesim.Figure2(2), daesim.RunOpts{WarmupInsts: 1000, MeasureInsts: 4000, Seed: 3})
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return req, rep
}

func TestGatePassesAGoodReport(t *testing.T) {
	req, rep := smallReport(t)
	g := &gate{pinsSeen: map[string]bool{}, pins: map[string]string{req.Hash()[:pinLen]: runner.ReportHash(rep)[:pinLen]}}
	if !g.report("good", req.Hash(), rep) || g.failed != 0 || g.attempted != 1 {
		t.Fatalf("good report: failed=%d attempted=%d %v", g.failed, g.attempted, g.errs)
	}
	if g.missingPins() != 0 {
		t.Fatalf("pin not marked seen")
	}
}

// A corrupted report counts as a failure: each corruption breaks one of
// the gate's checks.
func TestGateCountsCorruptedReportsAsFailures(t *testing.T) {
	req, good := smallReport(t)
	pin := map[string]string{req.Hash()[:pinLen]: runner.ReportHash(good)[:pinLen]}
	corruptions := map[string]func(r *stats.Report){
		// Breaks issued + wasted = total on the AP.
		"issued slots": func(r *stats.Report) { r.Slots[0].Issued++ },
		// Breaks graduated = sum of graduated by op.
		"graduated": func(r *stats.Report) { r.Graduated-- },
		// Keeps both laws but no longer matches the pinned hash.
		"cycles": func(r *stats.Report) { r.Cycles++ },
	}
	for name, corrupt := range corruptions {
		bad := good
		bad.Slots = good.Slots // arrays copy by value
		corrupt(&bad)
		g := &gate{pinsSeen: map[string]bool{}, pins: pin}
		if g.report(name, req.Hash(), bad) {
			t.Errorf("%s: corrupted report passed the gate", name)
		}
		if g.failed != 1 || g.attempted != 1 {
			t.Errorf("%s: failed=%d attempted=%d, want 1/1", name, g.failed, g.attempted)
		}
	}
}

// Away from the default seed nothing is pinned, but the conservation
// laws still apply.
func TestGateChecksConservationAtAnySeed(t *testing.T) {
	req, rep := smallReport(t)
	g, err := newGate(defaultSeed+1, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.pins != nil {
		t.Fatal("pins loaded for a non-default seed")
	}
	rep.GraduatedByOp[0]++
	if g.report("bad", req.Hash(), rep) || g.failed != 1 {
		t.Fatal("conservation break passed at a non-default seed")
	}
}

func TestGateMismatchAndRefusals(t *testing.T) {
	g := &gate{pinsSeen: map[string]bool{}}
	if !g.mismatch("same", []byte("{}"), []byte("{}")) {
		t.Fatal("equal bytes reported as a mismatch")
	}
	if g.mismatch("differ", []byte(`{"a":1}`), []byte(`{"a":2}`)) {
		t.Fatal("different bytes passed")
	}
	g.fail("refused", context.DeadlineExceeded)
	if g.failed != 2 || g.attempted != 2 {
		t.Fatalf("failed=%d attempted=%d, want 2/2", g.failed, g.attempted)
	}
}

// The embedded pins belong to the default seed and are well formed.
func TestEmbeddedPins(t *testing.T) {
	g, err := newGate(defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.pins) == 0 {
		t.Fatal("no pins for the default seed")
	}
	for req, rep := range g.pins {
		if len(req) != pinLen || len(rep) != pinLen {
			t.Fatalf("malformed pin %q -> %q", req, rep)
		}
	}
}

// A cached reply skips decoding only when its bytes equal a reply of the
// same pool entry that passed the whole gate; any other reply, fresh
// requests' included, goes through the gate in full.
func TestVerifiedReplyNeedsSameBytes(t *testing.T) {
	f := &serveFixture{verified: make([][]byte, 2), verifiedRep: make([]stats.Report, 2)}
	raw := []byte(`{"Graduated":5}`)
	if _, ok := f.verifiedReport(0, raw); ok {
		t.Fatal("a reply passed before any was verified")
	}
	var want stats.Report
	want.Graduated = 5
	f.verify(0, raw, want)
	if rep, ok := f.verifiedReport(0, []byte(`{"Graduated":5}`)); !ok || rep.Graduated != 5 {
		t.Fatalf("identical bytes: %v %+v", ok, rep)
	}
	if _, ok := f.verifiedReport(0, []byte(`{"Graduated":6}`)); ok {
		t.Fatal("corrupted bytes passed")
	}
	if _, ok := f.verifiedReport(1, raw); ok {
		t.Fatal("another pool entry's bytes passed")
	}
	if _, ok := f.verifiedReport(-1, raw); ok {
		t.Fatal("a fresh reply skipped the gate")
	}
}

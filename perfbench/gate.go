package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/runner"
	"repro/internal/stats"
)

// pinsJSON holds the report hash of every request the benchmark makes in
// the minimum-size prefix of each phase at the default seed. Regenerate
// it with --write-pins after a deliberate model change.
//
//go:embed pins.json
var pinsJSON []byte

// pinFile is the pins.json format.
type pinFile struct {
	Seed uint64 `json:"seed"`
	// Reports maps request content hash to report content hash, both
	// cut to their first pinLen hex digits.
	Reports map[string]string `json:"reports"`
}

// pinLen is how many hex digits of a hash a pin keeps: 80 bits, far
// beyond what an accidental collision among a few hundred pins needs.
const pinLen = 20

// gate is the output-correctness gate. Every report a phase receives
// passes through it, and every attempted operation is counted here, so
// failed/attempted covers errors, refusals and wrong outputs alike.
type gate struct {
	mu        sync.Mutex
	pins      map[string]string // checked when non-nil
	record    map[string]string // filled when writing pins
	pinsSeen  map[string]bool
	attempted int
	failed    int
	errs      []string
}

func newGate(seed uint64, writePins bool) (*gate, error) {
	g := &gate{pinsSeen: make(map[string]bool)}
	if writePins {
		g.record = make(map[string]string)
		return g, nil
	}
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if seed == pf.Seed {
		g.pins = pf.Reports
	}
	return g, nil
}

// fail counts one attempted operation that failed.
func (g *gate) fail(what string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.failed++
	g.note(fmt.Sprintf("%s: %v", what, err))
}

// note keeps the first few failure messages for the log.
func (g *gate) note(msg string) {
	if len(g.errs) < 20 {
		g.errs = append(g.errs, msg)
	}
}

// report counts one attempted operation that produced rep for the
// request with content hash reqHash, and reports whether rep passed the
// gate: the conservation laws must hold, and at the default seed a
// pinned request's report hash must match its pin.
func (g *gate) report(what, reqHash string, rep stats.Report) bool {
	err := conservation(rep)
	h := runner.ReportHash(rep)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err == nil && g.pins != nil {
		if want, ok := g.pins[reqHash[:pinLen]]; ok {
			g.pinsSeen[reqHash[:pinLen]] = true
			if h[:pinLen] != want {
				err = fmt.Errorf("report hash %.12s, pinned %.12s", h, want)
			}
		}
	}
	if g.record != nil {
		g.record[reqHash[:pinLen]] = h[:pinLen]
	}
	if err != nil {
		g.failed++
		g.note(fmt.Sprintf("%s (request %.12s): %v", what, reqHash, err))
		return false
	}
	return true
}

// passed counts one attempted operation whose report is byte for byte
// one that already passed report for the same request.
func (g *gate) passed(reqHash string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if g.pins != nil {
		if _, ok := g.pins[reqHash[:pinLen]]; ok {
			g.pinsSeen[reqHash[:pinLen]] = true
		}
	}
}

// mismatch counts a cross-path comparison that found two reports of one
// request differing.
func (g *gate) mismatch(what string, a, b []byte) bool {
	if string(a) == string(b) {
		return true
	}
	g.fail(what, fmt.Errorf("reports differ (%d vs %d bytes)", len(a), len(b)))
	return false
}

// missingPins returns the pinned requests the run never made: at the
// default seed every phase's minimum-size prefix is pinned, so a pin not
// seen means the run did not cover what the pins describe.
func (g *gate) missingPins() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pins == nil {
		return 0
	}
	return len(g.pins) - len(g.pinsSeen)
}

// writePins stores the recorded report hashes as the pin file for seed.
func (g *gate) writePins(path string, seed uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	raw, err := json.MarshalIndent(pinFile{Seed: seed, Reports: g.record}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// messages returns the recorded failure messages, sorted.
func (g *gate) messages() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := append([]string(nil), g.errs...)
	sort.Strings(out)
	return out
}

// conservation checks the report's accounting identities: for every
// issue unit, issued plus wasted slots equal the slots offered, and the
// graduated count equals the sum of its per-operation breakdown.
func conservation(rep stats.Report) error {
	for u, s := range rep.Slots {
		sum := float64(s.Issued)
		for _, w := range s.Wasted {
			sum += w
		}
		if math.Abs(sum-float64(s.Total)) > 1e-6*math.Max(1, float64(s.Total)) {
			return fmt.Errorf("unit %d: issued+wasted %.3f != total %d", u, sum, s.Total)
		}
	}
	var byOp int64
	for _, n := range rep.GraduatedByOp {
		byOp += n
	}
	if byOp != rep.Graduated {
		return fmt.Errorf("graduated %d != sum by op %d", rep.Graduated, byOp)
	}
	if rep.Graduated <= 0 {
		return fmt.Errorf("no instructions graduated")
	}
	return nil
}

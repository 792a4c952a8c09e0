package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	daesim "repro"
	"repro/internal/runner"
	"repro/internal/serveapi"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The serve-mixed phase is dae-serve under its callers: serveapi's
// handler over an Engine with an on-disk cache directory, on a loopback
// listener, driven as a closed loop by nproc connections (dae-serve
// callers wait for each reply).
//
// The traffic is the repository's own model of dae-serve callers,
// cmd/dae-load at its defaults: a warm pool of 8 requests and the mix
// cached=0.7, fresh=0.2, sweep=0.1. The sweep class is left out, because
// the fig4-sweep phase measures sweeps, so each request is drawn fresh
// with probability 0.2/0.9 and is otherwise a repeat of a pool entry.
// Two of the pool's entries replay a trace file; the other six are
// generator requests. The pool is precomputed into the cache directory,
// and a fresh Engine per phase makes each entry's first touch a
// disk-tier read and later touches memory-tier hits. A fresh request,
// with an unseen seed, simulates and then writes its cache entry to
// disk.
//
// Requests run 5000 warm-up + 30000 measured instructions, not
// dae-load's 500 + 2000. At dae-load's budget a fresh request simulates
// for about 0.4 ms of a 1.1 ms round trip, the rest being queueing
// behind the other connection and the garbage collector, and across
// five seeds fresh_ms_p50 spread by 0.31, fresh_ms_tail by 0.42 and the
// cache hits' p99 by 0.38 of their medians, over their bounds. At 35000
// instructions, still a small budget beside a Figure 4 point, simulation
// is most of a fresh request and the same spreads were 0.07 to 0.12.
const (
	servePool      = 8
	servePoolTrace = 2
	serveWarmup    = 5_000
	serveMeasure   = 30_000
	serveFreshFrac = 0.2 / (0.7 + 0.2)
	// serveTraceStream is the per-stream length of the exported trace.
	serveTraceStream = 40_000
	// A unit is a burst of serveBurst requests; bursts only interleave
	// the phase with the others and do not shape its traffic.
	// serveMinBursts is the phase's minimum size (see phase).
	serveBurst     = 200
	serveMinBursts = 10
	// serveTailCount is the sample count both tails are chosen at:
	// p(1-10/serveTailCount) = p90 (see tailQuantile). A p99, the tail at
	// 1000 samples, spread by 0.24 to 0.34 of its median across six
	// seeds even with 23000 cache hits a run: the few slowest round trips
	// of a loopback request on a shared 2-CPU host follow the host's
	// contention, not the program.
	serveTailCount = 100
)

// serveFixture is the serve phase's input, generated once per process
// and excluded from set-up time: a trace file, the request pool and a
// cache directory holding the pool's results.
type serveFixture struct {
	pool     []daesim.Request
	bodies   [][]byte
	hashes   []string
	reports  []string // report hash of each pool entry, as first computed
	cacheDir string
	// setupDir holds the pool's results too, but no fresh request ever
	// writes to it: NewEngine lists its cache directory, so set-up probes
	// use this one, whose size stays the same through the run.
	setupDir string

	// verified holds, per pool entry, the report bytes of a reply that
	// passed the whole gate, and verifiedRep its decoded report. A later
	// reply with the same bytes passes without being decoded and hashed
	// again, so the client spends little CPU beside the server's.
	mu          sync.Mutex
	verified    [][]byte
	verifiedRep []stats.Report
}

func (b *bench) serveFixture() (*serveFixture, error) {
	if b.serve != nil {
		return b.serve, nil
	}
	rng := b.rng("serve-pool")
	tracePath := filepath.Join(b.fixtures, "trace.ctr")
	if err := exportTrace(tracePath, rng.Uint64N(1<<32)); err != nil {
		return nil, err
	}
	f := &serveFixture{cacheDir: filepath.Join(b.dir, "serve-cache"), setupDir: filepath.Join(b.dir, "setup-cache")}
	lats := []int64{1, 16, 64, 256}
	benches := workload.Names()
	opts := daesim.RunOpts{WarmupInsts: serveWarmup, MeasureInsts: serveMeasure}
	for i := range servePool - servePoolTrace {
		m := daesim.Figure2(1 + i%4).WithL2Latency(lats[i%len(lats)])
		o := opts
		o.Seed = rng.Uint64N(1<<32) + 1
		req := daesim.MixRequest(m, o)
		if i%2 == 1 {
			req = daesim.BenchmarkRequest(benches[(i/2)%len(benches)], m, o)
		}
		f.pool = append(f.pool, req)
	}
	for i := range servePoolTrace {
		m := daesim.Figure2(2 + 2*i).WithL2Latency(lats[(i+1)%len(lats)])
		f.pool = append(f.pool, daesim.TraceRequest(tracePath, "", m, opts))
	}
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc, CacheDir: f.cacheDir})
	if err != nil {
		return nil, err
	}
	for i := range f.pool {
		f.pool[i].Label = fmt.Sprintf("perfbench pool %d", i)
	}
	results, _ := eng.RunBatch(b.ctx, f.pool)
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("precompute pool entry %d: %w", i, r.Err)
		}
		body, err := json.Marshal(f.pool[i])
		if err != nil {
			return nil, err
		}
		f.bodies = append(f.bodies, body)
		f.hashes = append(f.hashes, r.Hash)
		f.reports = append(f.reports, runner.ReportHash(r.Report))
	}
	f.verified = make([][]byte, len(f.pool))
	f.verifiedRep = make([]stats.Report, len(f.pool))
	eng, err = daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc, CacheDir: f.setupDir})
	if err != nil {
		return nil, err
	}
	if _, err := eng.RunBatch(b.ctx, f.pool); err != nil {
		return nil, fmt.Errorf("fill the set-up cache directory: %w", err)
	}
	b.serve = f
	return f, nil
}

// exportTrace writes a two-stream swim trace with workload.ExportTrace,
// through a rename so a reader never sees a partial file.
func exportTrace(path string, seed uint64) error {
	bench, err := workload.ByName("swim")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "trace-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := workload.ExportTrace(tmp, bench, 2, seed, serveTraceStream, "perfbench fixture"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// runResponse is POST /v1/runs's reply with the report kept raw, so the
// traced run can compare its bytes with Engine.Run's.
type runResponse struct {
	Hash   string          `json:"hash"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report"`
	Error  string          `json:"error"`
}

// server is one set-up of the service: Engine, handler and listener.
type server struct {
	eng    *daesim.Engine
	srv    *http.Server
	url    string
	done   chan struct{}
	client *http.Client
}

// startServer builds the service over cacheDir and makes its first
// round trip: the set-up a dae-serve user pays before the first request.
func (b *bench) startServer(cacheDir string) (*server, error) {
	eng, err := daesim.NewEngine(daesim.EngineOpts{Workers: b.nproc, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := serveapi.NewHandler(eng, 0, 0)
	s := &server{
		eng:  eng,
		srv:  &http.Server{Handler: b.tracedHandler(h)},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: b.nproc,
			MaxConnsPerHost:     b.nproc,
		}},
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// close stops the server and waits until it has.
func (s *server) close() {
	s.srv.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// tracedHandler records a span around the in-process handler, linked to
// the client span that sent the request (a no-op wrapper when untraced).
func (b *bench) tracedHandler(h http.Handler) http.Handler {
	if b.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		sp := b.tr.begin("serveapi.handler", parent, r.Header.Get("X-Perfbench-Req"))
		h.ServeHTTP(w, r)
		b.tr.end(sp)
	})
}

// serveRun is one serve-mixed phase in progress: a service set up over
// the fixture's cache directory and what its requests measured so far.
type serveRun struct {
	b    *bench
	f    *serveFixture
	s    *server
	next int // index of the next request in the seeded schedule

	mu            sync.Mutex
	cached, fresh []float64
	freshHashes   []string
	insts         int64
	busy          time.Duration
}

// servePhase sets the phase up: Engine over the cache directory,
// listener and first round trip.
func (b *bench) servePhase() (stepper, error) {
	f, err := b.serveFixture()
	if err != nil {
		return nil, err
	}
	s, err := b.startServer(f.cacheDir)
	if err != nil {
		return nil, err
	}
	return &serveRun{b: b, f: f, s: s}, nil
}

// serveEntry is one scheduled request: a pool index, or a fresh
// request with its encoded body and hash.
type serveEntry struct {
	id        int
	pool      int // -1 for a fresh request
	body      []byte
	freshHash string
}

// step sends one burst of requests over nproc connections, each of which
// sends its next request when the previous reply has arrived.
func (r *serveRun) step() error {
	b := r.b
	rng := b.rng("serve")
	burst := make(chan serveEntry, serveBurst) // holds the whole burst
	for range serveBurst {
		e := serveEntry{id: r.next, pool: -1}
		if rng.Float64() < serveFreshFrac {
			req := serveFreshRequest(1<<40 + rng.Uint64N(1<<32))
			e.body, _ = json.Marshal(req) // a Request always encodes
			e.freshHash = req.Hash()
		} else {
			e.pool = rng.IntN(len(r.f.pool))
		}
		burst <- e
		r.next++
	}
	close(burst)
	t0 := time.Now()
	var wg sync.WaitGroup
	for range b.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range burst {
				r.send(e)
			}
		}()
	}
	wg.Wait()
	r.busy += time.Since(t0)
	return nil
}

// serveFreshRequest is the phase's fresh request: dae-load's Figure 2
// mix request on one thread, with an unseen seed.
func serveFreshRequest(seed uint64) daesim.Request {
	req := daesim.MixRequest(daesim.Figure2(1), daesim.RunOpts{
		WarmupInsts: serveWarmup, MeasureInsts: serveMeasure, Seed: seed})
	req.Label = "perfbench fresh"
	return req
}

// send makes one request and records its outcome.
func (r *serveRun) send(e serveEntry) {
	b, f := r.b, r.f
	what := fmt.Sprintf("serve request %d", e.id)
	body, hash := e.body, e.freshHash
	if e.pool >= 0 {
		body, hash = f.bodies[e.pool], f.hashes[e.pool]
	}
	d, raw, err := b.post(r.s, body, fmt.Sprintf("serve-%d", e.id), e.pool < 0)
	if err != nil {
		b.gate.fail(what, err)
		return
	}
	rep, ok := f.verifiedReport(e.pool, raw)
	if ok {
		b.gate.passed(hash)
		b.model.add(rep)
	} else {
		if rep, err = decodeReport(raw); err == nil && e.pool >= 0 && runner.ReportHash(rep) != f.reports[e.pool] {
			err = errors.New("cached report differs from the precomputed one")
		}
		if err != nil {
			b.gate.fail(what, err)
			return
		}
		if !b.checked(what, hash, rep) {
			return
		}
		f.verify(e.pool, raw, rep)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.pool >= 0 {
		r.cached = append(r.cached, float64(d)/1e6)
	} else {
		r.fresh = append(r.fresh, float64(d)/1e6)
		r.freshHashes = append(r.freshHashes, hash)
		r.insts += rep.Graduated + serveWarmup
	}
}

func (r *serveRun) result() phaseResult {
	b := r.b
	// Every fresh result must have reached the disk tier.
	for _, h := range r.freshHashes {
		if _, ok := runner.LoadEntry(r.f.cacheDir, h); !ok {
			b.gate.fail("fresh request "+h[:12], errors.New("no durable cache entry"))
		}
	}
	b.serveStats = r.s.eng.Stats()
	res := phaseResult{e2e: make(map[string]metric), insts: r.insts}
	b.latencies(res.e2e, "cached", r.cached, serveTailCount)
	b.latencies(res.e2e, "fresh", r.fresh, serveTailCount)
	done := len(r.cached) + len(r.fresh)
	res.e2e["req_per_s"] = metric{float64(done) / r.busy.Seconds(), "1/s"}
	res.headline = res.e2e["cached_ms_p50"].Value
	return res
}

func (r *serveRun) close() { r.s.close() }

// verifiedReport returns the decoded report of pool entry i when raw is
// byte for byte the reply that passed the gate for it.
func (f *serveFixture) verifiedReport(i int, raw []byte) (stats.Report, bool) {
	if i < 0 {
		return stats.Report{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.verified[i] == nil || !bytes.Equal(f.verified[i], raw) {
		return stats.Report{}, false
	}
	return f.verifiedRep[i], true
}

// verify records raw as the reply of pool entry i that passed the gate.
func (f *serveFixture) verify(i int, raw []byte, rep stats.Report) {
	if i < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.verified[i] == nil {
		f.verified[i], f.verifiedRep[i] = raw, rep
	}
}

// decodeReport decodes a reply's report.
func decodeReport(raw []byte) (stats.Report, error) {
	var rep stats.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return stats.Report{}, fmt.Errorf("decode report: %w", err)
	}
	return rep, nil
}

// post sends one POST /v1/runs and returns its round-trip time and the
// report's raw bytes. wantFresh says whether the reply must be a fresh
// simulation (true) or a cache hit (false).
func (b *bench) post(s *server, body []byte, reqID string, wantFresh bool) (time.Duration, []byte, error) {
	sp := b.tr.begin("client.post", 0, reqID)
	defer b.tr.end(sp)
	hr, err := http.NewRequestWithContext(b.ctx, http.MethodPost, s.url+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if b.tr != nil {
		hr.Header.Set("X-Perfbench-Span", strconv.FormatInt(sp, 10))
		hr.Header.Set("X-Perfbench-Req", reqID)
	}
	t0 := time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	var rr runResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return 0, nil, fmt.Errorf("decode reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("%s: %s", resp.Status, rr.Error)
	}
	if rr.Cached == wantFresh {
		return 0, nil, fmt.Errorf("reply cached=%v, want %v", rr.Cached, !wantFresh)
	}
	return d, rr.Report, nil
}

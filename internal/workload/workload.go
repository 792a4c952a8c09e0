// Package workload synthesizes the instruction streams the simulator is
// evaluated with.
//
// The paper traces the ten SPEC FP95 benchmarks on DEC Alpha hardware with
// ATOM. Those traces are not redistributable, so this package generates
// synthetic equivalents: each benchmark is modelled as a set of loop-nest
// kernels over strided array streams, parameterised to reproduce the
// properties that drive the paper's results —
//
//   - instruction mix (the AP/EP load balance of Section 3.1);
//   - floating-point chain ILP (the EP's in-order issue throughput);
//   - working-set size and stride versus the 64 KB L1 (the miss ratios of
//     Figure 1-c);
//   - address-stream regularity and loop predictability (AP run-ahead);
//   - indirect (gather) integer loads with short scheduling distance (the
//     integer perceived latency of Figure 1-b);
//   - floating-point-conditional branches that force the AP to wait for
//     the EP — loss-of-decoupling events (fpppp's behaviour in Fig 1-a).
//
// Generation is streaming (trace.Reader), deterministic for a given seed,
// and infinite: kernels loop forever, so run length is set by the
// simulation's instruction budget, as in the paper's 100M-instruction
// windows.
package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// StreamSpec describes one array access stream of a kernel.
type StreamSpec struct {
	// Name labels the stream in reports.
	Name string
	// SizeBytes is the working set the stream sweeps (wraps around).
	SizeBytes int
	// StrideBytes is the per-advance stride. With 32-byte cache lines a
	// stride-8 stream misses ~25% of its advances in steady state,
	// stride-32 ~100%, and a stream whose SizeBytes fits in L1 almost
	// never misses.
	StrideBytes int
	// Reuse is the number of consecutive accesses made to each position
	// before the stream advances (0 behaves as 1). Stencil and tiled
	// codes re-read neighbouring elements, so each cache line serves
	// Reuse×(line/stride) accesses; the per-access miss rate is
	// stride/(32×Reuse). This is the main knob for a benchmark's miss
	// ratio.
	Reuse int
}

// reuse returns the effective reuse factor.
func (s StreamSpec) reuse() int {
	if s.Reuse <= 0 {
		return 1
	}
	return s.Reuse
}

// IntLoadSpec describes the integer (address/index) load behaviour of a
// kernel.
type IntLoadSpec struct {
	// Stream is the index-array stream the integer load reads.
	Stream int
	// Every emits the integer load once per that many iterations (0 =
	// never).
	Every int
	// Feeds makes the following FP load's address register depend on the
	// loaded value (a gather), so AP progress stalls on the integer load.
	Feeds bool
	// Dist is the number of instruction slots between the integer load
	// and its dependent use — the "static scheduling quality" of the
	// paper's Figure 1-b discussion. Larger distances hide more latency.
	Dist int
}

// Kernel is one loop nest of a benchmark.
type Kernel struct {
	// Name labels the kernel.
	Name string
	// Weight is the number of inner iterations run before rotating to the
	// benchmark's next kernel.
	Weight int
	// InnerTrip is the inner-loop trip count; the closing branch is taken
	// InnerTrip-1 times then falls through, which a 2-bit BHT predicts
	// well for large trips.
	InnerTrip int
	// FPLoads lists the streams loaded into FP registers each iteration.
	FPLoads []int
	// Stores lists the streams written each iteration.
	Stores []int
	// IntLoad configures the kernel's integer load behaviour.
	IntLoad IntLoadSpec
	// FPOps is the number of floating-point operations per iteration.
	FPOps int
	// FPChains is the number of independent accumulator chains the FPOps
	// are distributed over — the EP's exploitable ILP.
	FPChains int
	// IntOps is the number of additional integer operations per iteration
	// (index arithmetic beyond the per-stream bumps).
	IntOps int
	// LODEvery inserts a loss-of-decoupling block (FP compare → FP-to-int
	// move → data-dependent branch) once per that many iterations (0 =
	// never). The move executes in the AP but reads an EP register, so
	// the AP drains the EP's backlog before proceeding.
	LODEvery int
	// LODTakenProb is the probability the LOD branch is taken
	// (data-dependent, hence mispredict-prone).
	LODTakenProb float64
}

// Benchmark is a named synthetic program.
type Benchmark struct {
	// Name is the SPEC FP95 benchmark the parameters model.
	Name string
	// Seed drives the benchmark's data-dependent randomness.
	Seed uint64
	// Streams are the arrays the kernels sweep.
	Streams []StreamSpec
	// Kernels are the loop nests, rotated by weight.
	Kernels []Kernel
}

// Validate checks the benchmark definition for consistency.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark without a name")
	}
	if len(b.Streams) == 0 || len(b.Streams) > maxStreams {
		return fmt.Errorf("workload %s: %d streams (1..%d supported)", b.Name, len(b.Streams), maxStreams)
	}
	for i, s := range b.Streams {
		if s.SizeBytes <= 0 || s.StrideBytes <= 0 {
			return fmt.Errorf("workload %s: stream %d has non-positive geometry", b.Name, i)
		}
		if s.StrideBytes > s.SizeBytes {
			return fmt.Errorf("workload %s: stream %d stride exceeds size", b.Name, i)
		}
	}
	if len(b.Kernels) == 0 {
		return fmt.Errorf("workload %s: no kernels", b.Name)
	}
	for _, k := range b.Kernels {
		if k.Weight <= 0 || k.InnerTrip <= 1 {
			return fmt.Errorf("workload %s/%s: weight/trip must be positive (trip>1)", b.Name, k.Name)
		}
		if len(k.FPLoads) == 0 && k.FPOps > 0 {
			return fmt.Errorf("workload %s/%s: FP ops without FP loads", b.Name, k.Name)
		}
		if len(k.FPLoads) > 8 || len(k.Stores) > 4 {
			return fmt.Errorf("workload %s/%s: too many loads/stores per iteration", b.Name, k.Name)
		}
		if k.FPOps > 0 && (k.FPChains <= 0 || k.FPChains > 8) {
			return fmt.Errorf("workload %s/%s: FP chains %d out of range 1..8", b.Name, k.Name, k.FPChains)
		}
		for _, s := range append(append([]int{}, k.FPLoads...), k.Stores...) {
			if s < 0 || s >= len(b.Streams) {
				return fmt.Errorf("workload %s/%s: stream index %d out of range", b.Name, k.Name, s)
			}
		}
		if k.IntLoad.Every > 0 {
			if k.IntLoad.Stream < 0 || k.IntLoad.Stream >= len(b.Streams) {
				return fmt.Errorf("workload %s/%s: int-load stream out of range", b.Name, k.Name)
			}
		}
		if k.LODEvery > 0 && (k.LODTakenProb < 0 || k.LODTakenProb > 1) {
			return fmt.Errorf("workload %s/%s: LOD probability %v out of range", b.Name, k.Name, k.LODTakenProb)
		}
	}
	return nil
}

// maxStreams bounds the per-kernel register usage.
const maxStreams = 10

// ReaderOpts configures a benchmark trace generator.
type ReaderOpts struct {
	// AddrOffset shifts every address; per-thread offsets give each
	// context its own address space (the paper's multiprogrammed mixes),
	// which makes the combined L1 working set grow with the thread count.
	AddrOffset uint64
	// Seed perturbs the benchmark's base seed (different "inputs").
	Seed uint64
}

// NewReader returns an infinite instruction stream for the benchmark. It
// panics on an invalid benchmark definition (the built-in set is validated
// by tests; custom definitions should be validated by the caller).
//
// Streams are interned on reuse: when a second reader asks for the same
// (benchmark spec, options) pair — as every sweep point after the first
// does — the instructions are materialized once into a shared packed
// buffer and replayed from then on (see intern.go), so sweep points stop
// re-deriving identical traces. Set InternBudgetBytes to 0 to force live
// generation.
func (b Benchmark) NewReader(opts ReaderOpts) trace.Reader {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	if InternBudgetBytes > 0 {
		if s := internFor(b, opts); s != nil {
			return &internReader{s: s}
		}
	}
	return b.newGenerator(opts)
}

// newGenerator builds the underlying streaming kernel interpreter.
func (b Benchmark) newGenerator(opts ReaderOpts) *generator {
	return b.compile().newGenerator(opts)
}

// program is a benchmark compiled for streaming: each kernel's
// iteration variants as static instruction templates, and each stream's
// address geometry. A program is immutable and shared by every
// generator of its benchmark (Mix compiles the built-in set once, not
// once per segment).
type program struct {
	seed    uint64 // the benchmark's base seed
	streams []streamGeom
	kernels []kernelProg
}

// streamGeom is one array stream's address geometry.
type streamGeom struct {
	// base is the stream's region: distinct 256 MB regions per stream
	// keep streams apart in memory, and a per-stream index skew spreads
	// small (cache-resident) streams across different L1 sets — without
	// it every stream would start at set 0 and resident streams would
	// thrash each other in the direct-mapped cache.
	base         uint64
	stride, size uint64
	reuse        int
}

// kernelProg is one compiled kernel.
type kernelProg struct {
	weight, trip       int
	intEvery, lodEvery int
	lodProb            float64
	// variants holds one template per iteration variant, indexed
	// [intLoad][lod]: intLoad is 0 when the iteration has no integer
	// load, else 1 + its rotating destination (0 or 1); lod is 1 when
	// the loss-of-decoupling block is live.
	variants [3][2]template
}

// template is one iteration variant's instructions with the dynamic
// fields left to patch: every memory slot's address (in emission
// order, which is the order the streams advance in), the LoD branch's
// outcome, and the closing branch's outcome (always the last slot).
type template struct {
	insts []isa.Inst
	addrs []addrPatch
	lod   int // slot of the LoD branch, -1 when the block is absent
}

// addrPatch names a memory slot and the stream its address comes from.
type addrPatch struct{ slot, stream int32 }

// compile builds the benchmark's program. b must be valid.
func (b Benchmark) compile() *program {
	p := &program{
		seed:    b.Seed,
		streams: make([]streamGeom, len(b.Streams)),
		kernels: make([]kernelProg, len(b.Kernels)),
	}
	for i, s := range b.Streams {
		p.streams[i] = streamGeom{
			base:   uint64(i+1)<<28 + uint64(i)*0x5340,
			stride: uint64(s.StrideBytes),
			size:   uint64(s.SizeBytes),
			reuse:  s.reuse(),
		}
	}
	for ki := range b.Kernels {
		k := &b.Kernels[ki]
		kp := &p.kernels[ki]
		*kp = kernelProg{
			weight: k.Weight, trip: k.InnerTrip,
			intEvery: k.IntLoad.Every, lodEvery: k.LODEvery,
			lodProb: k.LODTakenProb,
		}
		// Stable code layout: per-benchmark base (derived from the seed)
		// plus per-kernel spacing, chosen to avoid systematic BHT
		// aliasing between kernels and benchmarks.
		pcBase := (b.Seed&0xF)*0x1100 + 0x1000 + uint64(ki)*0x84c
		for intLoad := range kp.variants {
			for lod := range kp.variants[intLoad] {
				kp.variants[intLoad][lod] = compileIteration(k, pcBase, intLoad, lod == 1)
			}
		}
	}
	return p
}

// Register conventions (architectural, per kernel iteration):
//
//	r1..r10  stream base registers
//	r13,r14  integer-load destinations (rotating)
//	r15      loop counter
//	r16      LOD condition register
//	r20,r21  integer scratch
//	f0..f7   accumulator chains
//	f8..f15  FP load temporaries (rotating)
//	f16      LOD compare temporary
const (
	regStreamBase = 1  // r1..r10
	regIdxA       = 13 // rotating int-load destinations
	regIdxB       = 14
	regCounter    = 15
	regLODCC      = 16
	regScratchA   = 20
	regScratchB   = 21
	fpChainBase   = 0  // f0..f7
	fpTempBase    = 8  // f8..f15
	fpLODTemp     = 16 // f16
)

// compileIteration builds the template of one iteration variant of
// kernel k, assigning stable PCs per static slot (suppressed blocks keep
// their reserved slots).
func compileIteration(k *Kernel, pcBase uint64, intLoad int, lodLive bool) template {
	t := template{lod: -1}
	slot := 0
	pc := func() uint64 {
		p := pcBase + uint64(slot)*4
		slot++
		return p
	}
	emit := func(in isa.Inst) { t.insts = append(t.insts, in) }
	emitMem := func(in isa.Inst, stream int) {
		t.addrs = append(t.addrs, addrPatch{slot: int32(len(t.insts)), stream: int32(stream)})
		emit(in)
	}
	skip := func(n int) { slot += n } // reserve slots of a suppressed block

	intReg := func(n int) isa.Reg { return isa.IntReg(n) }
	fpReg := func(n int) isa.Reg { return isa.FPReg(n) }

	// 1. Index arithmetic: one bump of the shared counter plus any extra
	// integer ops. (Strength-reduced code: stream addressing reuses the
	// counter, so per-stream bumps are folded into one.)
	emit(isa.Inst{PC: pc(), Op: isa.OpIntALU, Dest: intReg(regCounter), Src1: intReg(regCounter), Src2: isa.NoReg})
	for i := 0; i < k.IntOps; i++ {
		d := regScratchA + i%2
		emit(isa.Inst{PC: pc(), Op: isa.OpIntALU, Dest: intReg(d), Src1: intReg(d), Src2: intReg(regCounter)})
	}

	// 2. Integer load (index/gather) in its reserved slot, its
	// destination rotating across iterations.
	intLoadLive := intLoad > 0
	idxDest := regIdxA + max(0, intLoad-1)
	if intLoadLive {
		emitMem(isa.Inst{
			PC: pc(), Op: isa.OpLoad,
			Dest: intReg(idxDest),
			Src1: intReg(regStreamBase + k.IntLoad.Stream), Src2: isa.NoReg,
			Size: 8,
		}, k.IntLoad.Stream)
	} else {
		skip(1)
	}
	// Scheduling distance: pad with integer ops between the index load
	// and its dependent use (models compiler scheduling quality).
	if k.IntLoad.Every > 0 && k.IntLoad.Feeds {
		for i := 0; i < k.IntLoad.Dist; i++ {
			if intLoadLive {
				emit(isa.Inst{PC: pc(), Op: isa.OpIntALU, Dest: intReg(regScratchB), Src1: intReg(regScratchB), Src2: isa.NoReg})
			} else {
				skip(1)
			}
		}
	}

	// 3. FP loads. When the kernel gathers, the first FP load of an
	// iteration with a live integer load uses the loaded index as its
	// address register.
	for i, s := range k.FPLoads {
		src := intReg(regStreamBase + s)
		if i == 0 && intLoadLive && k.IntLoad.Feeds {
			src = intReg(idxDest)
		}
		emitMem(isa.Inst{
			PC: pc(), Op: isa.OpLoad,
			Dest: fpReg(fpTempBase + i),
			Src1: src, Src2: isa.NoReg,
			Size: 8,
		}, s)
	}

	// 4. FP computation: round-robin the ops over the accumulator chains,
	// each consuming a loaded temporary.
	for i := 0; i < k.FPOps; i++ {
		chain := fpChainBase + i%k.FPChains
		temp := fpTempBase + i%max(1, len(k.FPLoads))
		emit(isa.Inst{
			PC: pc(), Op: isa.OpFPALU,
			Dest: fpReg(chain), Src1: fpReg(chain), Src2: fpReg(temp),
		})
	}

	// 5. Stores of chain results.
	for i, s := range k.Stores {
		chain := fpChainBase + i%max(1, k.FPChains)
		emitMem(isa.Inst{
			PC: pc(), Op: isa.OpStore, Dest: isa.NoReg,
			Src1: fpReg(chain), Src2: intReg(regStreamBase + s),
			Size: 8,
		}, s)
	}

	// 6. Loss-of-decoupling block in reserved slots: FP compare, FP→int
	// move (the AP instruction that must wait for the EP), and a
	// data-dependent branch.
	if k.LODEvery > 0 {
		if lodLive {
			c0 := fpReg(fpChainBase)
			c1 := fpReg(fpChainBase + k.FPChains/2)
			emit(isa.Inst{PC: pc(), Op: isa.OpFPALU, Dest: fpReg(fpLODTemp), Src1: c0, Src2: c1})
			emit(isa.Inst{PC: pc(), Op: isa.OpIntALU, Dest: intReg(regLODCC), Src1: fpReg(fpLODTemp), Src2: isa.NoReg})
			t.lod = len(t.insts)
			emit(isa.Inst{PC: pc(), Op: isa.OpBranch, Dest: isa.NoReg, Src1: intReg(regLODCC), Src2: isa.NoReg})
		} else {
			skip(3)
		}
	}

	// 7. Inner-loop closing branch, its outcome patched per iteration.
	emit(isa.Inst{PC: pc(), Op: isa.OpBranch, Dest: isa.NoReg, Src1: intReg(regCounter), Src2: isa.NoReg})
	return t
}

// newGenerator starts a stream of the program.
func (p *program) newGenerator(opts ReaderOpts) *generator {
	return &generator{
		prog:   p,
		rng:    rng.New(p.seed ^ (opts.Seed * 0x9e3779b97f4a7c15)),
		off:    opts.AddrOffset,
		stream: make([]streamState, len(p.streams)),
	}
}

// generator is the streaming kernel interpreter: it runs a compiled
// program one iteration at a time.
type generator struct {
	prog *program
	rng  *rng.Source
	off  uint64

	stream []streamState

	kernel    int // current kernel index
	kernIters int // iterations completed in the current kernel run
	iter      int // absolute iteration number within the kernel (for trips)

	buf  []isa.Inst // instructions of the current iteration
	next int        // read cursor into buf
}

// streamState is one stream's cursor.
type streamState struct {
	pos uint64 // byte position within the stream
	use int    // accesses made at the current position (reuse)
}

// Next implements trace.Reader. The stream is infinite.
func (g *generator) Next(out *isa.Inst) bool {
	if g.next >= len(g.buf) {
		g.emitIteration()
	}
	*out = g.buf[g.next]
	g.next++
	return true
}

// NextChunk implements trace.Chunker: the unread rest of the current
// iteration. The stream is infinite, so the chunk is never empty.
func (g *generator) NextChunk() []isa.Inst {
	if g.next >= len(g.buf) {
		g.emitIteration()
	}
	c := g.buf[g.next:]
	g.next = len(g.buf)
	return c
}

// emitIteration refills g.buf with one inner-loop iteration of the
// current kernel: a copy of the variant's template with its addresses
// and branch outcomes patched in.
func (g *generator) emitIteration() {
	k := &g.prog.kernels[g.kernel]
	intLoad, lod := 0, 0
	if k.intEvery > 0 && g.iter%k.intEvery == 0 {
		intLoad = 1 + g.iter%2
	}
	if k.lodEvery > 0 && g.iter%k.lodEvery == k.lodEvery-1 {
		lod = 1
	}
	t := &k.variants[intLoad][lod]

	g.buf = append(g.buf[:0], t.insts...)
	g.next = 0
	for _, p := range t.addrs {
		g.buf[p.slot].Addr = g.advance(int(p.stream))
	}
	if t.lod >= 0 {
		g.buf[t.lod].Taken = g.rng.Bool(k.lodProb)
	}
	// Inner-loop closing branch: taken except on loop exit.
	g.buf[len(g.buf)-1].Taken = g.iter%k.trip != k.trip-1

	// Advance kernel rotation state.
	g.iter++
	g.kernIters++
	if g.kernIters >= k.weight && len(g.prog.kernels) > 1 {
		g.kernIters = 0
		g.iter = 0
		g.kernel = (g.kernel + 1) % len(g.prog.kernels)
	}
}

// advance returns the current address of the stream and steps it after
// the stream's reuse count is exhausted (stencil-style temporal reuse).
// The position stays below the stream size and the stride does not
// exceed it (Validate), so one subtraction wraps it.
func (g *generator) advance(stream int) uint64 {
	s := &g.prog.streams[stream]
	st := &g.stream[stream]
	pos := st.pos
	st.use++
	if st.use >= s.reuse {
		st.use = 0
		st.pos += s.stride
		if st.pos >= s.size {
			st.pos -= s.size
		}
	}
	return g.off + s.base + pos
}

// InstsPerIteration returns the fixed slot count of one iteration of the
// kernel (reserved slots included), used by tests and documentation.
func (k Kernel) InstsPerIteration() int {
	n := 1 + k.IntOps // counter bump + scratch ops
	n++               // int-load slot
	if k.IntLoad.Every > 0 && k.IntLoad.Feeds {
		n += k.IntLoad.Dist
	}
	n += len(k.FPLoads)
	n += k.FPOps
	n += len(k.Stores)
	if k.LODEvery > 0 {
		n += 3
	}
	n++ // closing branch
	return n
}

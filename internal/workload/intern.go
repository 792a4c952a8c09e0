package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Trace interning.
//
// Every figure in the paper is a sweep, and every sweep point re-creates
// the same per-thread instruction streams: the generator for a given
// (benchmark spec, address offset, seed) triple is deterministic, so
// each point used to re-interpret the same kernels instruction by
// instruction (~8% of a busy simulation profile). NewReader therefore
// memoizes each triple's output in a shared packed buffer: the first
// reader materializes instructions chunk by chunk from one underlying
// generator, and every later reader — in this run, a later sweep point,
// or a concurrent runner worker — replays the prefix with a bounds check
// and a copy.
//
// The buffers are append-only and chunked: a published chunk never moves,
// so readers race-freely index it after observing the published length
// (atomic publication provides the happens-before edge). Growth stops at
// a global byte budget — streams are infinite, the cache must not be —
// after which a reader that outruns the shared prefix falls back to a
// private generator fast-forwarded to its position. Interned and live
// readers produce bit-identical streams by construction.

// Interning starts on *reuse*: the first reader for a key generates
// live (a one-shot stream would only pay the buffer's allocation and
// memory traffic for nothing — a 20M-instruction dae-sim run measured
// ~35% slower with eager interning); the second reader for the same key
// starts materializing the shared buffer from scratch, and later readers
// replay it. A sweep's N points over one stream thus generate it at most
// twice instead of N times.

// internChunkLen is the number of instructions materialized per chunk
// (32 KiB per chunk at 32 bytes per instruction).
const internChunkLen = 1024

// InternBudgetBytes caps the total memory the trace interner may hold
// across all streams, in bytes. Once exhausted, streams stop growing and
// readers beyond the shared prefix generate privately. Set to 0 (before
// any simulation) to disable interning. The default covers the full
// default instruction budgets of every figure sweep's early segments —
// the region sweep points actually share.
var InternBudgetBytes int64 = 256 << 20

type internChunk = [internChunkLen]isa.Inst

// internedStream is one memoized (benchmark, opts) instruction stream.
type internedStream struct {
	// published is the number of instructions readable lock-free; the
	// chunks covering them are reachable via the chunks pointer. Writers
	// publish chunk contents before bumping published (atomic store →
	// atomic load gives readers the happens-before edge).
	published atomic.Int64
	chunks    atomic.Pointer[[]*internChunk]

	mu     sync.Mutex
	gen    trace.Chunker // shared generator, positioned past `published`
	carry  []isa.Inst    // gen's chunk not yet copied, ending at gen's position
	newGen func() trace.Chunker
	frozen bool // budget exhausted: the stream stops growing
}

// internFirstSightings caps the keys remembered as seen once. A key
// evicted from the set is simply a first sighting again the next time
// it appears: that reader runs live, which yields the identical stream.
// Without the cap a long-lived process (dae-serve answering requests
// with ever-new seeds) would remember every key it was ever asked for.
const internFirstSightings = 4096

var (
	internMu      sync.Mutex
	internStreams = map[string]*internedStream{}
	internUsed    atomic.Int64
	// firstSeen holds the keys seen exactly once, and firstOrder the
	// same keys oldest first, plus keys since promoted to internStreams
	// (eviction pops those without effect).
	firstSeen  = map[string]struct{}{}
	firstOrder []string
)

// internFor returns the shared stream for one generator configuration,
// or nil on the key's first sighting (the caller then reads live; see
// the reuse rule above). The key is the full structural fingerprint of
// the benchmark plus the reader options, so two distinct specs that
// happen to share a name can never alias.
func internFor(b Benchmark, opts ReaderOpts) *internedStream {
	return internForKey(
		fmt.Sprintf("%+v|off=%d|seed=%d", b, opts.AddrOffset, opts.Seed),
		func() trace.Chunker { return b.newGenerator(opts) },
	)
}

// internForKey is the generic registry lookup behind internFor (and the
// mix-level interning in mix.go): nil on first sighting, the shared
// stream afterwards. newGen builds the key's live stream.
func internForKey(key string, newGen func() trace.Chunker) *internedStream {
	internMu.Lock()
	defer internMu.Unlock()
	if s, ok := internStreams[key]; ok {
		return s
	}
	if _, ok := firstSeen[key]; ok {
		delete(firstSeen, key)
		s := &internedStream{newGen: newGen}
		internStreams[key] = s
		return s
	}
	// First sighting: remember the key, but let this reader run live.
	firstSeen[key] = struct{}{}
	firstOrder = append(firstOrder, key)
	for len(firstSeen) > internFirstSightings {
		delete(firstSeen, firstOrder[0])
		firstOrder = firstOrder[1:]
	}
	return nil
}

// internReader replays one interned stream from the beginning. It holds
// a window into the current chunk, so the per-instruction fast path is
// a slice read (the atomic loads and chunk lookup run once per window),
// and NextChunk hands out the window itself.
type internReader struct {
	s   *internedStream
	cur []isa.Inst // unread slice of the current chunk
	pos int64      // absolute position of cur's end
	// live is the private fallback generator once the shared prefix is
	// frozen and exhausted.
	live trace.Chunker
}

// Next implements trace.Reader; the stream is infinite.
func (r *internReader) Next(out *isa.Inst) bool {
	if len(r.cur) == 0 && (r.live != nil || !r.refresh()) {
		return r.live.Next(out)
	}
	*out = r.cur[0]
	r.cur = r.cur[1:]
	return true
}

// NextChunk implements trace.Chunker: the unread window of the shared
// buffer, or the fallback generator's chunk.
func (r *internReader) NextChunk() []isa.Inst {
	if len(r.cur) == 0 && (r.live != nil || !r.refresh()) {
		return r.live.NextChunk()
	}
	c := r.cur
	r.cur = nil
	return c
}

// refresh loads the next window into r.cur, growing the shared stream
// when this reader is at its tip. It reports false after switching the
// reader to private generation (the stream froze short of r.pos).
func (r *internReader) refresh() bool {
	s := r.s
	n := s.published.Load()
	if r.pos >= n {
		if !s.extend(r.pos) {
			// The shared prefix is frozen short of r.pos: fall back to a
			// private generator fast-forwarded to this reader's position.
			r.live = s.newGen()
			var skip isa.Inst
			for i := int64(0); i < r.pos; i++ {
				r.live.Next(&skip)
			}
			return false
		}
		n = s.published.Load()
	}
	chunk := (*s.chunks.Load())[r.pos/internChunkLen]
	lo := r.pos % internChunkLen
	hi := int64(internChunkLen)
	if end := n - (r.pos - lo); end < hi {
		hi = end // the tip chunk may be only partially published
	}
	r.cur = chunk[lo:hi]
	r.pos += hi - lo
	return true
}

// extend grows the shared prefix until it covers pos. It reports false
// when the stream is frozen (budget exhausted) before reaching pos.
func (s *internedStream) extend(pos int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.published.Load()
	for pos >= n {
		if s.frozen {
			return false
		}
		if s.gen == nil {
			// First growth: the shared generator starts from scratch
			// (the key's first reader ran live and shared nothing).
			s.gen = s.newGen()
		}
		if internUsed.Add(internChunkBytes) > InternBudgetBytes {
			internUsed.Add(-internChunkBytes)
			s.frozen = true
			s.gen, s.carry = nil, nil // release the shared generator
			return false
		}
		ch := new(internChunk)
		for i := 0; i < len(ch); {
			if len(s.carry) == 0 {
				s.carry = s.gen.NextChunk() // generators never run dry
			}
			k := copy(ch[i:], s.carry)
			s.carry = s.carry[k:]
			i += k
		}
		old := s.chunks.Load()
		var grown []*internChunk
		if old != nil {
			grown = append(grown, *old...)
		}
		grown = append(grown, ch)
		s.chunks.Store(&grown)
		n += internChunkLen
		s.published.Store(n)
	}
	return true
}

const internChunkBytes = internChunkLen * int64(unsafe.Sizeof(isa.Inst{}))

// internStats reports the interner's footprint (tests only): keys seen
// once, shared streams, and bytes held.
func internStats() (firstSightings, shared int, bytes int64) {
	internMu.Lock()
	defer internMu.Unlock()
	return len(firstSeen), len(internStreams), internUsed.Load()
}

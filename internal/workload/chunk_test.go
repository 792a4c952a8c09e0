package workload

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Differential tests of the batch-reading contract (trace.Chunker):
// every reader the simulator consumes must yield the identical stream
// whether it is read record by record (Next), chunk by chunk
// (NextChunk), or by a random interleaving of the two.

// readMode reads up to n records from r; a finite stream may yield
// fewer. pick chooses, before each read, whether it takes one record or
// one chunk.
func readMode(t *testing.T, r trace.Reader, n int, pick func() bool) []isa.Inst {
	t.Helper()
	c := trace.Chunks(r)
	var out []isa.Inst
	for len(out) < n {
		if pick() {
			chunk := c.NextChunk()
			if len(chunk) == 0 {
				assertExhausted(t, c)
				break
			}
			out = append(out, chunk...) // copy now: valid until the next call
			continue
		}
		var in isa.Inst
		if !c.Next(&in) {
			assertExhausted(t, c)
			break
		}
		out = append(out, in)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// assertExhausted checks that a dry stream stays dry on both methods.
func assertExhausted(t *testing.T, c trace.Chunker) {
	t.Helper()
	var in isa.Inst
	for i := 0; i < 2; i++ {
		if len(c.NextChunk()) != 0 || c.Next(&in) {
			t.Fatal("exhausted stream yielded more records")
		}
	}
}

// checkReadModes compares the three ways of reading fresh readers from
// mk against want (n records, or the whole stream when it is finite).
func checkReadModes(t *testing.T, name string, mk func() trace.Reader, want []isa.Inst, n int) {
	t.Helper()
	rnd := rand.New(rand.NewPCG(1, uint64(len(name))))
	modes := []struct {
		name string
		pick func() bool
	}{
		{"Next", func() bool { return false }},
		{"NextChunk", func() bool { return true }},
		{"interleaved", func() bool { return rnd.IntN(2) == 0 }},
	}
	for _, m := range modes {
		got := readMode(t, mk(), n, m.pick)
		if len(got) != len(want) {
			t.Errorf("%s/%s: read %d records, want %d", name, m.name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s/%s: record %d = %+v, want %+v", name, m.name, i, got[i], want[i])
				break
			}
		}
	}
}

func TestReadModesGenerator(t *testing.T) {
	const n = 20_000
	for _, b := range All() {
		opts := ReaderOpts{AddrOffset: ThreadAddrOffset(1), Seed: 3}
		mk := func() trace.Reader { return b.newGenerator(opts) }
		checkReadModes(t, b.Name, mk, readN(t, mk(), n), n)
	}
}

// TestReadModesMixSegments uses 1001-record segments, which end in the
// middle of an iteration, so chunks are trimmed at every boundary.
func TestReadModesMixSegments(t *testing.T) {
	const n = 30_000
	mk := func() trace.Reader { return newMixReader(2, MixOpts{Seed: 1, SegmentLen: 1001}) }
	checkReadModes(t, "mix", mk, readN(t, mk(), n), n)
}

func TestReadModesInterned(t *testing.T) {
	b, err := ByName("turb3d")
	if err != nil {
		t.Fatal(err)
	}
	opts := ReaderOpts{AddrOffset: ThreadAddrOffset(0), Seed: 0xC4A7C}
	newGen := func() trace.Chunker { return b.newGenerator(opts) }
	const n = 3*internChunkLen + 37
	want := readN(t, newGen(), n)

	s := &internedStream{newGen: newGen}
	checkReadModes(t, "interned", func() trace.Reader { return &internReader{s: s} }, want, n)

	// Freeze fallback: the stream may grow by one chunk, after which
	// every reader continues on a private generator.
	saved := InternBudgetBytes
	defer func() { InternBudgetBytes = saved }()
	_, _, used := internStats()
	InternBudgetBytes = used + internChunkBytes
	frozen := &internedStream{newGen: newGen}
	var readers []*internReader
	checkReadModes(t, "frozen", func() trace.Reader {
		r := &internReader{s: frozen}
		readers = append(readers, r)
		return r
	}, want, n)
	for _, r := range readers {
		if r.live == nil {
			t.Fatal("reader never fell back to live generation despite the frozen stream")
		}
	}
}

func TestReadModesFinite(t *testing.T) {
	b, err := ByName("apsi")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5_000
	insts := readN(t, b.newGenerator(ReaderOpts{}), n)
	orig := append([]isa.Inst(nil), insts...)
	checkReadModes(t, "slice", func() trace.Reader { return trace.Slice(insts) }, insts, n+1)

	const delta = 1 << 40
	shifted := append([]isa.Inst(nil), insts...)
	for i := range shifted {
		if shifted[i].IsMem() {
			shifted[i].Addr += delta
		}
	}
	checkReadModes(t, "shifted", func() trace.Reader { return shiftedSlice(insts, delta) }, shifted, n+1)
	for i := range insts {
		if insts[i] != orig[i] {
			t.Fatalf("shifted replay wrote through to the shared decode at record %d", i)
		}
	}

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAll(trace.Slice(insts)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	checkReadModes(t, "file", func() trace.Reader {
		fr, err := trace.NewFileReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}, insts, n+1)
}

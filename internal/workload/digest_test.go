package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// streamDigest is the FNV-64a digest of the first n records of r, each
// record encoded field by field in a fixed little-endian layout.
func streamDigest(t *testing.T, r trace.Reader, n int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var in isa.Inst
	var buf [24]byte
	for i := 0; i < n; i++ {
		if !r.Next(&in) {
			t.Fatalf("stream ended at %d/%d", i, n)
		}
		binary.LittleEndian.PutUint64(buf[0:], in.PC)
		binary.LittleEndian.PutUint64(buf[8:], in.Addr)
		buf[16] = byte(in.Op)
		buf[17] = byte(in.Dest)
		buf[18] = byte(in.Src1)
		buf[19] = byte(in.Src2)
		buf[20] = in.Size
		buf[21] = 0
		if in.Taken {
			buf[21] = 1
		}
		h.Write(buf[:22])
	}
	return h.Sum64()
}

// digestLen is the pinned prefix length of every stream digest.
const digestLen = 200_000

// TestStreamDigestsPinned pins the first 200k instructions of every
// built-in benchmark (seed 1, thread 0's address space) and of Mix
// threads 0-3 (seed 1, default segments, plus thread 0 with 1001-record
// segments that end mid-iteration). Every simulation result derives
// from these streams, so a generator change that alters any of them
// must be deliberate.
func TestStreamDigestsPinned(t *testing.T) {
	benches := map[string]uint64{
		"tomcatv": 0x1907981b81043c90,
		"swim":    0xf96810043f2a50df,
		"su2cor":  0xe13eeb33d23d6d6e,
		"hydro2d": 0xdd8a9edf00c726da,
		"mgrid":   0x180e857425e8e31a,
		"applu":   0x131a46ed40012e60,
		"turb3d":  0x7c3010c328d9762c,
		"apsi":    0x39128bc1fae5dd63,
		"fpppp":   0x804a92070d1788e5,
		"wave5":   0xd8b171f4c7b3bc5d,
	}
	for _, b := range All() {
		opts := ReaderOpts{AddrOffset: ThreadAddrOffset(0), Seed: 1}
		if got, want := streamDigest(t, b.newGenerator(opts), digestLen), benches[b.Name]; got != want {
			t.Errorf("%s: digest %#016x, want %#016x", b.Name, got, want)
		}
	}
	mixes := []struct {
		thread int
		opts   MixOpts
		want   uint64
	}{
		{0, MixOpts{Seed: 1}, 0xd067aa9e6e36f659},
		{1, MixOpts{Seed: 1}, 0x1c1da383c5e4cd82},
		{2, MixOpts{Seed: 1}, 0x4555d19177c293e6},
		{3, MixOpts{Seed: 1}, 0x218b3cac6bd8c68e},
		{0, MixOpts{Seed: 1, SegmentLen: 1001}, 0xec1c3819d31dc6c3},
	}
	for _, m := range mixes {
		if got := streamDigest(t, newMixReader(m.thread, m.opts), digestLen); got != m.want {
			t.Errorf("mix thread %d %+v: digest %#016x, want %#016x", m.thread, m.opts, got, m.want)
		}
	}
}

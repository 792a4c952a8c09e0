package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run takes a CPU profile of itself during the workload's
// phase and folds its samples into buckets named after the simulator's
// layers. Each sample goes to the innermost frame that belongs to a
// bucket, so time in a helper package (runtime, rename, queue) is
// charged to the layer that called it. The profile format is decoded
// here directly (gzipped protobuf), because the benchmark imports
// nothing outside the standard library and the repository.

// bucketOf names the layer bucket of a function, or "" when the frame
// belongs to none and the sample should be charged further up.
func bucketOf(fn, file string) string {
	has := func(s string) bool { return strings.Contains(file, s) }
	switch {
	case has("internal/core/epoch.go"):
		return "epoch"
	case has("internal/core/calendar.go"):
		return "calendar"
	case has("internal/core/warp.go"), has("internal/mem/warm.go"):
		return "warp"
	case has("internal/sim/adaptive.go"):
		return "adaptive"
	case has("internal/core/issue.go"):
		return "issue"
	case has("internal/branch/"):
		return "branch"
	case has("internal/mem/"), has("internal/cache/"), has("internal/bus/"):
		return "mem"
	case has("internal/workload/"), has("internal/trace/"), has("internal/traceio/"):
		return "workload"
	case has("internal/core/"):
		name := fn[strings.LastIndex(fn, ".")+1:]
		switch name {
		case "fetch", "fetchThread", "specFetchLoad", "specFetched", "peekSource", "consumeSource":
			return "fetch"
		case "dispatch", "tryDispatch", "alloc", "release", "file":
			return "dispatch"
		case "cacheAccess", "tryLoad", "completeLoad", "overlaps":
			return "cache_access"
		case "graduate", "tryCommitStore":
			return "graduate"
		case "resolveBranches":
			return "branch"
		case "fastForward", "nextEventAt":
			return "calendar"
		}
		return "core_other"
	}
	return ""
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time, plus that total in seconds.
func profileShares(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// Sample value index 1 is CPU nanoseconds in Go's CPU profiles.
	vi := 0
	if p.valueCount > 1 {
		vi = 1
	}
	byBucket := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		total += v
		byBucket[p.sampleBucket(s.locs)] += v
	}
	shares := make(map[string]float64)
	if total == 0 {
		return shares, 0, nil
	}
	for k, v := range byBucket {
		shares[k] = float64(v) / float64(total)
	}
	return shares, float64(total) / 1e9, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	valueCount int
	samples    []profSample
	locLines   map[uint64][]uint64 // location id -> function ids, innermost first
	funcs      map[uint64][2]int64 // function id -> (name, filename) string indexes
	strs       []string
}

// sampleBucket walks a sample's stack from the leaf outwards and
// returns the first bucket it meets ("other" when none).
func (p *profile) sampleBucket(locs []uint64) string {
	for _, l := range locs {
		for _, fid := range p.locLines[l] {
			f := p.funcs[fid]
			if b := bucketOf(p.str(f[0]), p.str(f[1])); b != "" {
				return b
			}
		}
	}
	return "other"
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile reads the fields of perftools.profiles.Profile this
// benchmark needs: sample_type (1), sample (2), location (4), function
// (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: make(map[uint64][]uint64), funcs: make(map[uint64][2]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1:
			p.valueCount++
		case 2:
			var s profSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, data)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, data); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var name, file int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = [2]int64{name, file}
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, data a length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

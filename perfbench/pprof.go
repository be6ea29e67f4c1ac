package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// modules are the repository modules the CPU split names; a sample is
// charged to the module of its innermost repository frame. "api" is the
// root package. Background GC is "gc"; everything else (the runtime,
// syscalls, the benchmark itself, unlisted internal packages) is "other".
var modules = []string{
	"assign", "shard", "skyline", "topk", "ta", "heaputil", "rtree",
	"pagestore", "score", "simd", "geom", "wal", "snapshot", "api",
}

// moduleOf classifies one function name; ok is false for frames outside
// the program (the runtime, the standard library, the benchmark).
func moduleOf(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "fairassign/perfbench"):
		return "", false
	case strings.HasPrefix(fn, "fairassign/internal/"):
		mod := strings.TrimPrefix(fn, "fairassign/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		return mod, true
	case strings.HasPrefix(fn, "fairassign."):
		return "api", true
	}
	return "", false
}

// cpuShares reads a runtime/pprof CPU profile and returns, for every
// name in modules plus "gc" and "other", its share of the samples.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		n := int64(1)
		if len(s.values) > 0 {
			n = s.values[0]
		}
		total += n
		counts[p.classify(s.locs)] += n
	}
	out := map[string]float64{"gc": 0, "other": 0}
	for _, m := range modules {
		out[m] = 0
	}
	if total == 0 {
		return out, nil
	}
	for k, n := range counts {
		if _, listed := out[k]; !listed {
			k = "other"
		}
		out[k] += float64(n) / float64(total)
	}
	return out, nil
}

// profile is the part of profile.proto the CPU split needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.functions[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// classify returns the module of the innermost repository frame of a
// stack, "gc" for background mark workers, and "other" otherwise.
func (p *profile) classify(locs []uint64) string {
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if mod, ok := moduleOf(p.funcName(f)); ok {
				return mod
			}
		}
	}
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if strings.HasPrefix(p.funcName(f), "runtime.gcBgMarkWorker") {
				return "gc"
			}
		}
	}
	return "other"
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field given either unpacked
// (one varint) or packed (a length-delimited run).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message: varint fields
// arrive in v, length-delimited ones in b; fixed-width ones are skipped.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProto
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProto
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

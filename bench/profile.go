package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A runtime/pprof CPU profile is a gzipped protocol buffer (the pprof
// profile.proto format). The standard library writes it but exposes no
// reader, so the few fields the layer shares need are decoded here.

// stack is one profile sample: its weight in samples and its function
// names, leaf first, inlined frames included.
type stack struct {
	weight int64
	funcs  []string
}

var errProto = errors.New("malformed profile")

// fields walks the top-level fields of one protobuf message. Varint
// fields arrive as v with data nil; length-delimited ones as data.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// ints decodes one occurrence of a repeated integer field, packed or not.
func ints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out, data = append(out, x), data[n:]
	}
	return out
}

// parseProfile decodes a runtime/pprof CPU profile into stacks.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs, values []uint64
	}
	var samples []sample
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	err = fields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2 (value[0] is the sample count)
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = append(s.locs, ints(v, data)...)
				case 2:
					s.values = append(s.values, ints(v, data)...)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1), innermost first
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		st := stack{weight: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// groupByPkg maps packages to the profile layers; anything else is
// "other".
var groupByPkg = map[string]string{
	"charonsim/internal/cache":       "cache",
	"charonsim/internal/sim":         "sim",
	"charonsim/internal/dram":        "dram",
	"charonsim/internal/hmc":         "hmc",
	"charonsim/internal/charon":      "charon",
	"charonsim/internal/cpu":         "cpu",
	"charonsim/internal/memsys":      "memsys",
	"charonsim/internal/exec":        "exec",
	"charonsim/internal/gc":          "record",
	"charonsim/internal/gcmeta":      "record",
	"charonsim/internal/heap":        "record",
	"charonsim/internal/workload":    "record",
	"charonsim":                      "experiments",
	"charonsim/internal/cli":         "experiments",
	"charonsim/internal/energy":      "experiments",
	"charonsim/internal/experiments": "experiments",
	"charonsim/internal/stats":       "experiments",
	"charonsim/internal/server":      "server",
	"charonsim/internal/checkpoint":  "server",
	"charonsim/internal/atomicio":    "server",
	"internal/poll":                  "syscall",
	"os":                             "syscall",
	"syscall":                        "syscall",
}

// pkgOf extracts the package path from a symbol name such as
// "charonsim/internal/cache.(*Cache).Access" or "slices.Sort[...]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func groupOf(pkg string) string {
	if g, ok := groupByPkg[pkg]; ok {
		return g
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"):
		return "net"
	case strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	}
	return "other"
}

// cumFuncs are the entry points whose inclusive share is reported.
var cumFuncs = map[string]string{
	"replay_host":   "charonsim/internal/exec.(*hostPlatform).Replay",
	"replay_charon": "charonsim/internal/exec.(*charonPlatform).Replay",
	"record":        "charonsim/internal/workload.RunRecordedMode",
}

// profileShares reduces a profile to each layer's share of self time and
// the entry points' inclusive shares.
func profileShares(stacks []stack) map[string]float64 {
	var total float64
	self := map[string]float64{}
	cum := map[string]float64{}
	for _, s := range stacks {
		w := float64(s.weight)
		total += w
		if len(s.funcs) > 0 {
			self[groupOf(pkgOf(s.funcs[0]))] += w
		}
		for name, fn := range cumFuncs {
			for _, f := range s.funcs {
				if f == fn {
					cum[name] += w
					break
				}
			}
		}
	}
	out := map[string]float64{}
	for _, g := range profGroups {
		out["prof."+g+".self_share"] = ratio(self[g], total)
	}
	for name := range cumFuncs {
		out["prof."+name+".cum_share"] = ratio(cum[name], total)
	}
	return out
}

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

// This file folds a CPU profile into self time per layer. The profile is the
// gzipped profile.proto that runtime/pprof writes; the decoder below reads
// only the fields the fold needs (samples, locations, functions, strings),
// so the benchmark adds no module dependency and starts no process.

// layerOf maps the Go package of a profile sample's leaf frame to the
// repo's layer. Layers are the repo's modules; packages that exist to serve
// one layer are folded into it, the Go runtime (allocator, collector,
// scheduler) is its own row, and everything else — the standard library and
// this driver — is "other".
func layerOf(pkg string) string {
	const root = "deltasigma"
	switch {
	case pkg == root:
		return "facade"
	case strings.HasPrefix(pkg, root+"/internal/"):
		name := strings.TrimPrefix(pkg, root+"/internal/")
		switch name {
		case "core", "topo", "dynamics":
			return "facade"
		case "keys", "fec":
			return "delta"
		case "cbr":
			return "tcp"
		case "replicated", "threshold", "dsc", "mfcc", "abrcf":
			return "rivals"
		}
		return name
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profiledLayers lists every row layerOf can produce, in report order.
var profiledLayers = []string{
	"sim", "packet", "netsim", "mcast", "flid", "delta", "shamir", "sigma", "rivals",
	"cohort", "tcp", "stats", "invariant", "fuzzing", "campaign", "scenario", "facade",
	"runtime", "other",
}

// packageOf extracts the package path from a symbol name such as
// "deltasigma/internal/sim.(*calQueue).pop" or "slices.SortFunc[go.shape...]".
func packageOf(symbol string) string {
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}

// foldProfile adds the profile's CPU nanoseconds to into, keyed by layer.
func foldProfile(gz []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}

	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		samples   [][2]uint64           // leaf location id, value
		sampleErr error
	)
	err = eachField(raw, func(num int, varint uint64, body []byte) {
		switch num {
		case 2: // sample
			var locs, vals []uint64
			sampleErr = errors.Join(sampleErr, eachField(body, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					locs = appendUvarints(locs, v, b)
				case 2:
					vals = appendUvarints(vals, v, b)
				}
			}))
			if len(locs) > 0 && len(vals) > 0 {
				// The last value is cpu/nanoseconds; the first location
				// is the leaf.
				samples = append(samples, [2]uint64{locs[0], vals[len(vals)-1]})
			}
		case 4: // location
			var id, fn uint64
			haveLine := false
			sampleErr = errors.Join(sampleErr, eachField(body, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined callee
					if haveLine {
						return
					}
					haveLine = true
					sampleErr = errors.Join(sampleErr, eachField(b, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fn = v
						}
					}))
				}
			}))
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			sampleErr = errors.Join(sampleErr, eachField(body, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(body))
		}
	})
	if err = errors.Join(err, sampleErr); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		layer := "other"
		if idx := funcName[locFunc[s[0]]]; idx < uint64(len(strs)) && strs[idx] != "" {
			layer = layerOf(packageOf(strs[idx]))
		}
		into[layer] += float64(s[1])
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited body.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			fn(num, v, nil)
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			fn(num, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field's values: one when it
// arrived unpacked (body nil), all of them when packed.
func appendUvarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

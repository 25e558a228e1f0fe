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

// Layers are the repository's packages as the per-layer metrics name
// them. dram and addr fold into mc and exp into sweep; metrics, report
// and obs are reached only through the layers that call them, so their
// samples go to the caller.
var layerOf = map[string]string{
	"sim": "sim", "mc": "mc", "dram": "mc", "addr": "mc", "baseline": "baseline", "power": "power",
	"workload": "workload", "kernel": "kernel", "hotplug": "hotplug", "ksm": "ksm", "vmtrace": "vmtrace",
	"core": "core", "sweep": "sweep", "exp": "sweep", "server": "server", "store": "store", "cluster": "cluster",
}

// profileLayers lists every layer a CPU share is reported for; "runtime"
// is the Go runtime (allocation, collection, scheduling, maps) and
// "other" is everything else (the standard library's network stack, the
// benchmark itself).
var profileLayers = []string{"sim", "mc", "baseline", "power", "workload", "kernel", "hotplug", "ksm",
	"vmtrace", "core", "sweep", "server", "store", "cluster", "runtime", "other"}

// funcPackage returns the import path of a symbol such as
// "greendimm/internal/ksm.(*Daemon).visit".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// classify attributes one sample's stack (leaf first) to a layer.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if pkg := funcPackage(stack[0]); pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(funcPackage(fn), "greendimm/internal/"); ok {
			if l, ok := layerOf[pkg]; ok {
				return l
			}
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns the sample
// count attributed to each layer and the total. The decoder reads only
// the fields it needs from the profile.proto wire format: samples
// (location ids and values), locations (line → function), functions
// (name) and the string table.
func cpuShares(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFunc = map[uint64][]uint64{} // location → function ids, innermost first
		funcStr = map[uint64]int64{}    // function → name string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFunc[l] {
				if i := funcStr[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		byLayer[classify(stack)] += s.count
		total += s.count
	}
	return byLayer, total, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
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
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
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

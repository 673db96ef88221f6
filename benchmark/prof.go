package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profLayers are the program layers CPU self time is attributed to.
// A sample is charged to the innermost frame that belongs to one of the
// program's own packages, so standard-library and runtime work (math,
// allocation) counts against the layer that asked for it; samples whose
// stack runs a garbage-collector worker or assist count as runtime_gc,
// and everything else (scheduler, syscalls, the benchmark's own code,
// packages without a layer of their own) as other.
var profLayers = []string{"tensor", "nn", "algo", "policy", "env", "cache", "live", "core", "simclock", "runtime_gc", "other"}

// cpuProfile is an in-flight CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of CPU samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return layerShares(p.buf.Bytes())
}

// layerShares parses a gzipped pprof CPU profile.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	weights := make(map[string]float64)
	var total float64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		var frames []string
		for _, locID := range s.locs {
			frames = append(frames, prof.locFuncs[locID]...)
		}
		weights[classify(frames)] += v
		total += v
	}
	shares := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		if total > 0 {
			shares[l] = weights[l] / total
		}
	}
	return shares, nil
}

// classify returns the layer of one sample's stack, innermost first.
func classify(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		const prefix = "stellaris/internal/"
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		pkg := f[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range profLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf wire format of a pprof profile:
// samples (field 2), locations (4), functions (5) and the string table
// (6).
func parseProfile(b []byte) (*profile, error) {
	type loc struct {
		id    uint64
		funcs []uint64
	}
	var (
		samples []sample
		locs    []loc
		funcs   = map[uint64]int64{} // function id → name string index
		strs    []string
	)
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var l loc
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					l.id = v
				case 4: // Line{function_id=1, line=2}
					return eachField(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs = append(locs, l)
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locs))}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, f := range l.funcs {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[l.id] = names
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of a protobuf message, calling fn
// with the varint value (wire types 0, 1, 5) or the bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// setProfileShares reports the per-layer CPU shares and the GC's share
// of CPU over the profiled window.
func setProfileShares(rep *report, shares map[string]float64, win window) {
	for _, l := range profLayers {
		rep.set("prof."+l+".share", "fraction", shares[l], "share of CPU profile samples (innermost program frame)")
	}
	rep.set("gc.cpu_fraction", "fraction", win.gcFraction, "runtime/metrics GC CPU / total CPU")
}

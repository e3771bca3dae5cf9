package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU sampling rate of the traced run; the default 100 Hz
// leaves too few samples in a run of a few seconds to split by module.
const profileHz = 1000

// profiler captures a CPU profile of the traced run's timed window. A nil
// *profiler does nothing.
type profiler struct {
	buf bytes.Buffer
	err error
}

func (p *profiler) start() {
	if p == nil {
		return
	}
	// Setting the rate first makes StartCPUProfile keep it (it reports on
	// stderr that it could not set its own 100 Hz).
	runtime.SetCPUProfileRate(profileHz)
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p == nil || p.err != nil {
		return
	}
	pprof.StopCPUProfile()
}

// selfByModule charges every sample's CPU time to the innermost
// dlsm/internal/<module> frame on its stack, so runtime work (futex
// handoff, memmove, allocation) lands on the module that caused it.
// Samples with no such frame go to "driver" when the benchmark or the
// dlsm facade is on the stack, else to "runtime" (GC workers, scheduler).
// The result is in host nanoseconds.
func (p *profiler) selfByModule() (map[string]int64, error) {
	if p.err != nil {
		return nil, p.err
	}
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range prof.samples {
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				name := prof.strings[prof.funcName[fn]]
				if rest, ok := strings.CutPrefix(name, "dlsm/internal/"); ok {
					if i := strings.IndexAny(rest, "./"); i > 0 {
						rest = rest[:i]
					}
					mod = rest
					break stack
				}
				if mod == "runtime" && (strings.HasPrefix(name, "dlsm.") || strings.HasPrefix(name, "main.")) {
					mod = "driver"
				}
			}
		}
		out[mod] += s.value
	}
	return out, nil
}

// profile is the subset of pprof's profile.proto that attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto message as written by
// runtime/pprof.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	var sampleTypes [][]byte
	var rawSamples [][]byte
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, b)
		case 2: // sample
			rawSamples = append(rawSamples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// Use the "cpu" value (nanoseconds), not the sample count.
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		_ = forFields(st, func(f int, v uint64, _ []byte) error {
			if f == 1 && int(v) < len(p.strings) && p.strings[v] == "cpu" {
				valueIdx = i
			}
			return nil
		})
	}
	for _, b := range rawSamples {
		var s profSample
		var values []uint64
		err := forFields(b, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				return appendVarints(&s.locs, v, b)
			case 2:
				return appendVarints(&values, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.value = int64(values[valueIdx])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// forFields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (b is nil for
// varints). Fixed-width fields are skipped.
func forFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either one unpacked
// value (b nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

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

// cpuLayers are the buckets of the CPU profile: one per package under
// dynprof/internal, then the three buckets for stacks that hold no frame
// of the program.
var cpuLayers = []string{
	"apps", "image", "proc", "mpi", "omp", "vt", "guide", "des", "dpcl", "serve",
	"core", "vgv", "exp", "adapt", "fault", "isa", "machine",
	"runtime_sched", "runtime_gc", "other",
}

const internalPrefix = "dynprof/internal/"

// gcFrames and schedFrames mark the runtime's own work on stacks without
// a program frame: garbage collection and allocation, then goroutine
// scheduling, channel handoff, network polling and system calls.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanstack", "runtime.greyobject", "runtime.sweepone",
		"runtime.mallocgc", "runtime.(*gcWork)", "runtime.(*mheap)", "runtime.(*mspan)",
		"runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.bulkBarrier",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.gopark", "runtime.goready", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.futex", "runtime.netpoll", "runtime.notesleep",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.goexit0",
		"runtime.gosched", "runtime.lock", "runtime.unlock", "runtime.usleep",
		"runtime.sysmon", "runtime.mstart", "runtime.newproc", "runtime.exitsyscall",
		"runtime.entersyscall", "syscall.", "internal/poll.", "internal/runtime/syscall.",
	}
)

// classify names the bucket of one stack, given its function names from
// the leaf outwards: the package of the innermost program frame, else
// runtime_gc, runtime_sched or other. A program package missing from
// cpuLayers keeps its own name, so its samples fall outside the shares.
func classify(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			return rest[:strings.IndexAny(rest+".", "./")]
		}
	}
	switch {
	case anyPrefix(frames, gcFrames):
		return "runtime_gc"
	case anyPrefix(frames, schedFrames):
		return "runtime_sched"
	}
	return "other"
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// layerShares decodes a runtime/pprof CPU profile and returns each
// bucket's share of the sampled CPU time and the number of samples. The
// shares sum to 1 only if the profile holds samples and every program
// package it names is in cpuLayers.
func layerShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	vi := 0
	for i, t := range p.sampleTypes {
		if t < uint64(len(p.strings)) && p.strings[t] == "cpu" {
			vi = i
		}
	}
	byLayer := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("sample without a cpu value")
		}
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				if n, ok := p.funcNames[fid]; ok && n < uint64(len(p.strings)) {
					frames = append(frames, p.strings[n])
				}
			}
		}
		w := float64(s.values[vi])
		byLayer[classify(frames)] += w
		total += w
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, len(p.samples), nil
}

// profile is the part of profile.proto the layer split needs.
type profile struct {
	sampleTypes []uint64 // string index of each value's type
	samples     []sample
	locLines    map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames   map[uint64]uint64   // function ID -> string index of its name
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the protobuf encoding of a pprof profile. Field
// numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	err := fields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return fields(data, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					p.sampleTypes = append(p.sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wire, v, data)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// fields walks the top level of one protobuf message. Varint fields
// arrive in v, length-delimited ones in data; fixed-width ones are
// skipped.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("short protobuf fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either its packed or its
// one-per-key encoding.
func varints(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

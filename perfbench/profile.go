package main

// CPU-profile attribution for the traced run.  runtime/pprof writes a
// gzipped profile.proto; the standard library has no reader for it, so
// this file decodes the few messages the attribution needs.  Each sample
// is charged to one layer: GC work to "gc"; otherwise the innermost frame
// that names a layer — a repro/internal/<module> package, the scheduler
// ("sched"), encoding/json or encoding/base64 ("json"), or a network
// system call ("syscall").  Samples with no such frame are "other".

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// cpuLayers are the categories reported as cpu.<layer>_ns.
var cpuLayers = []string{"sim", "ethersim", "filter", "pfdev", "live", "trace",
	"gc", "sched", "json", "syscall", "other"}

// profileHz is the requested sampling rate.  The default 100 Hz leaves
// a sub-second repetition with too few samples to split among layers;
// setting the rate first makes StartCPUProfile keep it (and print a
// warning that it could not apply its own).  The kernel's CPU-time
// timers may deliver fewer samples than asked, so samples are only
// counted and the CPU time comes from getrusage.
const profileHz = 1000

// profiler captures one CPU profile in memory plus the process CPU time
// it covers.
type profiler struct {
	buf bytes.Buffer
	cpu time.Duration
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	p.cpu = processCPU()
	return p, nil
}

// stop ends the profile and returns the sample count per layer and the
// process CPU time the profile covered.
func (p *profiler) stop() (map[string]float64, time.Duration, error) {
	cpu := processCPU() - p.cpu
	pprof.StopCPUProfile()
	samples, err := attribute(p.buf.Bytes())
	return samples, cpu, err
}

// processCPU is the user plus system time of every thread so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination"}

var schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mcall", "runtime.stopm",
	"runtime.startm", "runtime.wakep", "runtime.netpoll", "runtime.goschedImpl",
	"runtime.newproc", "runtime.goexit0", "runtime.handoffp", "runtime.exitsyscall",
	"runtime.entersyscall", "runtime.notesleep", "runtime.notewakeup", "runtime.futexsleep",
	"runtime.futexwakeup", "runtime.sysmon", "runtime.runqgrab", "runtime.selectgo",
	"runtime.chansend", "runtime.chanrecv"}

// layerOf classifies one function name, or returns "" when the frame
// does not name a layer and the caller should look further out.
func layerOf(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "encoding/json.") || strings.HasPrefix(fn, "encoding/base64."):
		return "json"
	case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/poll.") ||
		strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "syscall"
	}
	for _, s := range schedFrames {
		if fn == s {
			return "sched"
		}
	}
	return ""
}

// attribute decodes a gzipped CPU profile and counts samples per layer.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range prof.samples {
		// Frames of a sample, innermost first; a location lists its
		// inlined functions innermost first too.
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range prof.locFuncs[loc] {
				frames = append(frames, prof.strings[prof.funcName[fid]])
			}
		}
		layer := "other"
	classify:
		for _, fn := range frames {
			for _, g := range gcFrames {
				if fn == g {
					layer = "gc"
					break classify
				}
			}
		}
		if layer == "other" {
			for _, fn := range frames {
				if l := layerOf(fn); l != "" {
					layer = l
					break
				}
			}
		}
		if _, known := out[layer]; !known {
			layer = "other"
		}
		out[layer] += float64(s.count)
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	count int64 // the first sample value: how many times the stack was seen
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

// protobuf wire decoding: just varints and length-delimited fields.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one key and returns the field number, wire type, the
// varint value (wire type 0) or the payload (wire type 2).
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = p.varint()
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if n > uint64(len(p.b)) {
			err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 1:
		if len(p.b) < 8 {
			err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 5:
		if len(p.b) < 4 {
			err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wt)
	}
	return
}

// uints appends a repeated varint field, packed or not.
func uints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	pb := pbuf{data}
	for len(pb.b) > 0 {
		x, err := pb.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	prof := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	pb := pbuf{raw}
	for len(pb.b) > 0 {
		num, _, _, data, err := pb.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			sb := pbuf{data}
			for len(sb.b) > 0 {
				n, w, v, d, err := sb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = uints(s.locs, w, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, w, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) == 0 {
				return nil, errors.New("profile: sample without a count")
			}
			s.count = int64(vals[0])
			prof.samples = append(prof.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			lb := pbuf{data}
			for len(lb.b) > 0 {
				n, _, v, d, err := lb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					ln := pbuf{d}
					for len(ln.b) > 0 {
						m, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							funcs = append(funcs, fv)
						}
					}
				}
			}
			prof.locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			fb := pbuf{data}
			for len(fb.b) > 0 {
				n, _, v, _, err := fb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			prof.funcName[id] = name
		case 6: // string_table
			prof.strings = append(prof.strings, string(data))
		}
	}
	for _, fn := range prof.funcName {
		if fn < 0 || fn >= int64(len(prof.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return prof, nil
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds the spans one recorder keeps in memory (32 bytes
// each); the per-name totals keep counting past it.
const maxSpans = 1 << 20

// spanRec is one benchmark-side span around a call into a layer.
type spanRec struct {
	start, end int64 // ns since the recorder's epoch
	id         int64 // frame sequence number, or -1
	parent     int32 // index of the enclosing phase span, or -1
	name       uint16
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	n  int64
	ns int64
}

// recorder keeps the spans of one goroutine in memory until the run
// ends.  A nil *recorder records nothing, so untraced runs pay one nil
// check per call site.
type recorder struct {
	track  string
	epoch  time.Time
	recs   []spanRec
	names  []string
	index  map[string]uint16
	totals []spanTotal
	phase  int32
}

func newRecorder(track string, epoch time.Time) *recorder {
	return &recorder{track: track, epoch: epoch, index: map[string]uint16{}, phase: -1,
		recs: make([]spanRec, 0, 1<<16)}
}

// start returns the timestamp a span will begin at.
func (r *recorder) start() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// end closes a span begun at start under the current phase.
func (r *recorder) end(name string, start, id int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	k, ok := r.index[name]
	if !ok {
		k = uint16(len(r.names))
		r.index[name] = k
		r.names = append(r.names, name)
		r.totals = append(r.totals, spanTotal{})
	}
	r.totals[k].n++
	r.totals[k].ns += now - start
	if len(r.recs) < maxSpans {
		r.recs = append(r.recs, spanRec{start: start, end: now, id: id, parent: r.phase, name: k})
	}
}

// beginPhase opens a phase span ("setup", "measure", a replay) that
// parents the call spans recorded until endPhase.
func (r *recorder) beginPhase(name string) {
	if r == nil || len(r.recs) >= maxSpans {
		return
	}
	r.end(name, r.start(), -1) // placeholder, closed by endPhase
	r.phase = int32(len(r.recs) - 1)
}

func (r *recorder) endPhase() {
	if r == nil || r.phase < 0 {
		return
	}
	ph := &r.recs[r.phase]
	now := int64(time.Since(r.epoch))
	r.totals[ph.name].ns += now - ph.end
	ph.end = now
	r.phase = ph.parent
}

// meanNs is the mean duration of the spans named name, in ns; 0 when
// there are none.
func (r *recorder) meanNs(name string) float64 {
	if r == nil {
		return 0
	}
	k, ok := r.index[name]
	if !ok {
		return 0
	}
	return float64(r.totals[k].ns) / float64(r.totals[k].n)
}

// writeSpans writes the recorders' spans as one Chrome trace-event file
// (load it in chrome://tracing or Perfetto), one thread per recorder.
func writeSpans(path string, header string, recs ...*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"otherData\":{\"run\":%q},\"traceEvents\":[\n", header)
	first := true
	for tid, r := range recs {
		if r == nil {
			continue
		}
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		fmt.Fprintf(bw, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}}", sep, tid, r.track)
		for _, s := range r.recs {
			fmt.Fprintf(bw, ",\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
				r.names[s.name], tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

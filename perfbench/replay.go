package main

// Per-layer replay calls: after the traced run, each layer's own entry
// point is driven directly with the workload's inputs, so a change to
// one layer shows in that layer's figure without the rest of the path.

import (
	"sort"
	"time"

	"repro/internal/filter"
	"repro/internal/pup"
	"repro/internal/sim"
	"repro/internal/vtime"
)

const (
	replayFrames = 20000  // frames per scan/match pass
	replayPasses = 3      // passes per replay; the median is reported
	replayChurn  = 2048   // churn events replayed when the workload has no churner
	switchRounds = 100000 // WaitQ ping-pong rounds
)

// timeMedian runs f replayPasses times inside a span and returns the
// median wall time.
func timeMedian(rec *recorder, name string, f func()) time.Duration {
	ds := make([]float64, replayPasses)
	for i := range ds {
		t := rec.start()
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
		rec.end(name, t, int64(i))
	}
	sort.Float64s(ds)
	return time.Duration(ds[len(ds)/2])
}

// replayLayers adds the replay figures to layer.  filters are the
// workload's bound filters in bind order, frames its inputs, churn its
// decoy rebinds (empty when it has no churner), and the decoys are the
// last decoys filters.
func replayLayers(layer map[string]float64, filters []filter.Filter, frames [][]byte,
	churn []filter.Filter, traffic, decoys int, rec *recorder) {
	if len(frames) > replayFrames {
		frames = frames[:replayFrames]
	}
	nf := float64(len(frames))

	// The checked interpreter's priority scan, as the oracle runs it.
	order := make([]int, len(filters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return filters[order[a]].Priority > filters[order[b]].Priority
	})
	hits := 0
	d := timeMedian(rec, "replay.filter.Run", func() {
		for _, fr := range frames {
			for _, k := range order {
				if filter.Run(filters[k].Program, fr).Accept {
					hits++
					break
				}
			}
		}
	})
	layer["filter.scan_ns"] = float64(d) / nf

	tbl := filter.BuildTable(filters)
	d = timeMedian(rec, "replay.filter.Table.Match", func() {
		for _, fr := range frames {
			hits += len(tbl.Match(fr))
		}
	})
	layer["filter.table_match_ns"] = float64(d) / nf

	// Churn through Table.Remove/Insert, as the device patches on
	// setfilter and close.  A workload without a churner rebinds its
	// last ports to sockets no frame carries.
	if len(churn) == 0 {
		decoys = min(8, len(filters))
		traffic = len(filters) - decoys
		for k := 0; k < replayChurn; k++ {
			churn = append(churn, pup.SocketFilter(link, 10, decoySocket(decoys+k)))
		}
	}
	patches, work := 0, 0
	d = timeMedian(rec, "replay.filter.Table.Insert/Remove", func() {
		t := filter.BuildTable(filters)
		slots := make([]int, decoys)
		for i := range slots {
			slots[i] = traffic + i
		}
		w0 := t.Work()
		for k, f := range churn {
			j := k % decoys
			t = t.Remove(slots[j])
			t, slots[j] = t.Insert(f)
		}
		patches, work = 2*len(churn), t.Work()-w0
	})
	layer["filter.table_patch_us"] = float64(d) / 1e3 / float64(patches)
	layer["filter.table_work_per_patch"] = float64(work) / float64(patches)

	d = timeMedian(rec, "replay.sim.WaitQ", func() { pingPong(switchRounds) })
	layer["sim.switch_ns"] = float64(d) / float64(2*switchRounds)
	replaySink = hits
}

// replaySink keeps the replay loops' results observable, so the
// compiler cannot drop the calls being timed.
var replaySink int

// pingPong bounces control between two processes through a pair of
// wait queues, rounds times each way.
func pingPong(rounds int) {
	s := sim.New(vtime.DefaultCosts())
	h := s.NewHost("H")
	ping, pong := s.NewWaitQ(), s.NewWaitQ()
	s.Spawn(h, "pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(pong, 0)
			for ping.Len() == 0 {
				p.Yield()
			}
			ping.WakeOne(h)
		}
	})
	s.Spawn(h, "ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			for pong.Len() == 0 {
				p.Yield()
			}
			pong.WakeOne(h)
			p.Wait(ping, 0)
		}
	})
	s.Run(0)
}

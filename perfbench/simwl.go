package main

// The simulated workloads: host A transmits pre-generated frames of the
// §6.1 traffic mix to a packet-filter device on host B, where one reader
// process per bound port drains its queue with ReadBatch.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
	"repro/internal/vtime"
	"repro/internal/workload"
)

const link = ethersim.Ether10Mb

// simWindows is how many equal windows of frames a sim repetition's
// latency figures are taken over.
const simWindows = 10

// pupIDOffset is where the Pup ID sits in a frame; the benchmark stamps
// each frame's sequence number there.
var pupIDOffset = link.HeaderLen() + 4

type simConfig struct {
	name    string
	mode    pfdev.EvalMode
	traffic int // ports the mix is spread over, one reader each
	decoys  int // extra bound ports the churner rebinds; no frame matches them
	frames  int
	// gap paces the sender in virtual time.  It is wide enough that no
	// NIC or port queue overflows, so every frame's outcome is the
	// oracle's: at 4 ms, sim-mix saturates host B's CPU with
	// interrupt-level scans and starves the readers.
	gap time.Duration
	// churnEvery is the frames per churn event (0: no churner).
	churnEvery int
	// readTimeout is the readers' virtual ReadBatch timeout.  At
	// 100 ms, idle readers' timeouts outnumbered deliveries ten to
	// one; at 1 s, deliveries dominate the process switches.
	readTimeout time.Duration
	// setups is how many universes a child builds to time set-up; the
	// last one is measured.
	setups int
}

// sim-mix is the paper's own configuration: §6.1's mix over 32 ports,
// checked interpreter, linear priority scan.
var simMixCfg = simConfig{name: "sim-mix", mode: pfdev.EvalChecked, traffic: 32,
	frames: 40000, gap: 6 * time.Millisecond, readTimeout: time.Second, setups: 15}

// sim-churn is table mode at 1024 bound ports (992 carrying traffic, 32
// decoys) with a decoy rebound every 32 frames, every fourth event a
// close and reopen.
var simChurnCfg = simConfig{name: "sim-churn", mode: pfdev.EvalTable, traffic: 992, decoys: 32,
	frames: 10000, gap: 2 * time.Millisecond, churnEvery: 32, readTimeout: time.Second, setups: 2}

// simInputs is everything generated from the seed before the timer.
type simInputs struct {
	frames  [][]byte
	filters []filter.Filter // bound order; traffic ports first, then decoys
	expect  []int32         // oracle: port index per frame, -1 for a kernel drop
	perPort []int           // oracle deliveries per port
	churn   []filter.Filter // decoy rebinds, in order
}

func trafficSocket(i int) uint32 { return uint32(0x100 + i) }

// decoySocket is far outside the traffic population, so no frame of the
// mix can match a decoy however it is rebound.
func decoySocket(i int) uint32 { return uint32(0x200000 + i) }

// genSimInputs generates the frames and filters from the seed.  The
// oracle comes from prepare's output when given, or is computed.
func genSimInputs(cfg simConfig, seed int64, prepared []byte) (*simInputs, error) {
	in := &simInputs{}
	sockets := make([]uint32, cfg.traffic)
	for i := range sockets {
		sockets[i] = trafficSocket(i)
		in.filters = append(in.filters, pup.SocketFilter(link, 10, sockets[i]))
	}
	for i := 0; i < cfg.decoys; i++ {
		in.filters = append(in.filters, pup.SocketFilter(link, 10, decoySocket(i)))
	}
	gen := workload.NewGenerator(seed, link, workload.PaperMix(), sockets)
	gen.SocketBias = 0.4
	in.frames = make([][]byte, cfg.frames)
	for i := range in.frames {
		in.frames[i] = stampSeq(gen.Frame(2, 1), uint32(i))
	}
	if len(prepared) == 0 {
		in.expect, in.perPort = oracle(in.filters, in.frames)
	} else {
		h := framesHash(in.frames)
		if len(prepared) != 8+4*len(in.frames) || binary.LittleEndian.Uint64(prepared) != h {
			return nil, errors.New("oracle input does not match the generated frames")
		}
		in.expect, in.perPort = make([]int32, len(in.frames)), make([]int, len(in.filters))
		for i := range in.expect {
			in.expect[i] = int32(binary.LittleEndian.Uint32(prepared[8+4*i:]))
			if in.expect[i] >= 0 {
				in.perPort[in.expect[i]]++
			}
		}
	}
	if cfg.churnEvery > 0 {
		for k := 0; k < cfg.frames/cfg.churnEvery; k++ {
			in.churn = append(in.churn, pup.SocketFilter(link, 10, decoySocket(cfg.decoys+k)))
		}
	}
	return in, nil
}

// prepare computes the oracle once per run: a hash of the frames it
// belongs to, then each frame's expected port.
func (cfg simConfig) prepare(seed int64) ([]byte, error) {
	in, err := genSimInputs(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	out := binary.LittleEndian.AppendUint64(nil, framesHash(in.frames))
	for _, e := range in.expect {
		out = binary.LittleEndian.AppendUint32(out, uint32(e))
	}
	return out, nil
}

func framesHash(frames [][]byte) uint64 {
	h := fnv.New64a()
	for _, fr := range frames {
		h.Write(fr)
	}
	return h.Sum64()
}

// stampSeq writes seq into a Pup frame's ID field; other frames are
// returned unchanged.
func stampSeq(frame []byte, seq uint32) []byte {
	if _, _, et, _, err := link.Decode(frame); err == nil && et == ethersim.EtherTypePup {
		binary.BigEndian.PutUint32(frame[pupIDOffset:], seq)
	}
	return frame
}

// frameSeq reads the sequence number back out of a delivered frame.
func frameSeq(frame []byte) (uint32, bool) {
	if len(frame) < pupIDOffset+4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[pupIDOffset:]), true
}

// oracle computes each frame's expected port with the reference
// interpreter: the filters are applied in decreasing priority (ties in
// bind order) and the first that accepts receives the frame.
func oracle(filters []filter.Filter, frames [][]byte) (expect []int32, perPort []int) {
	order := make([]int, len(filters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return filters[order[a]].Priority > filters[order[b]].Priority
	})
	expect = make([]int32, len(frames))
	perPort = make([]int, len(filters))
	for i, fr := range frames {
		expect[i] = -1
		for _, k := range order {
			if filter.Run(filters[k].Program, fr).Accept {
				expect[i] = int32(k)
				perPort[k]++
				break
			}
		}
	}
	return expect, perPort
}

// universe is one simulated set-up: two hosts on one segment and B's
// packet-filter device with every port bound.
type universe struct {
	s          *sim.Sim
	hA, hB     *sim.Host
	nicA, nicB *ethersim.NIC
	dev        *pfdev.Device
	ports      []*pfdev.Port
}

// buildUniverse creates the universe and binds every filter; rec, when
// non-nil, records spans around the port calls.
func buildUniverse(cfg simConfig, filters []filter.Filter, rec *recorder) (*universe, error) {
	u := &universe{s: sim.New(vtime.DefaultCosts())}
	net := ethersim.New(u.s, link)
	u.hA, u.hB = u.s.NewHost("A"), u.s.NewHost("B")
	u.nicA, u.nicB = net.Attach(u.hA, 1), net.Attach(u.hB, 2)
	u.dev = pfdev.Attach(u.nicB, nil, pfdev.Options{Mode: cfg.mode})
	u.ports = make([]*pfdev.Port, len(filters))
	var err error
	u.s.Spawn(u.hB, "bind", func(p *sim.Proc) {
		for i, f := range filters {
			t := rec.start()
			u.ports[i] = u.dev.Open(p)
			rec.end("pfdev.Port.Open", t, -1)
			t = rec.start()
			err = u.ports[i].SetFilter(p, f)
			rec.end("pfdev.Port.SetFilter", t, -1)
			if err != nil {
				err = fmt.Errorf("bind port %d: %w", i, err)
				return
			}
			u.ports[i].SetTimeout(p, cfg.readTimeout)
		}
	})
	u.s.Run(0)
	return u, err
}

func (cfg simConfig) run(seed int64, mode string, prepared []byte) (*repResult, error) {
	traced := mode != "plain"
	in, err := genSimInputs(cfg, seed, prepared)
	if err != nil {
		return nil, err
	}
	res := &repResult{Counts: map[string]float64{}, Layer: map[string]float64{}}

	var rec *recorder
	if traced {
		rec = newRecorder("sim", time.Now())
	}
	var u *universe
	for i := 0; i < cfg.setups; i++ {
		u = nil
		runtime.GC()
		rec.beginPhase("setup")
		t := time.Now()
		if u, err = buildUniverse(cfg, in.filters, rec); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		rec.endPhase()
	}

	// Readers check every delivery against the oracle as it arrives.
	senderDone := false
	delivered, okDeliveries, exited := 0, 0, 0
	// The sender marks the wall clock every window of frames; the
	// spread of the windows' per-frame cost is the sim's latency figure.
	window := len(in.frames) / simWindows
	marks := make([]time.Time, 0, simWindows+1)
	var bad []string
	seen := make([]bool, len(in.frames))
	for i := 0; i < cfg.traffic; i++ {
		i := i
		port := u.ports[i]
		u.s.Spawn(u.hB, fmt.Sprintf("reader-%d", i), func(p *sim.Proc) {
			defer func() { exited++ }()
			for got := 0; got < in.perPort[i]; {
				t := rec.start()
				pkts, err := port.ReadBatch(p)
				rec.end("pfdev.Port.ReadBatch", t, -1)
				if err == pfdev.ErrTimeout && !senderDone {
					continue
				}
				if err != nil {
					return
				}
				for _, pkt := range pkts {
					got++
					delivered++
					seq, ok := frameSeq(pkt.Data)
					switch {
					case !ok || int(seq) >= len(in.frames):
						bad = append(bad, fmt.Sprintf("port %d: unknown frame", i))
					case in.expect[seq] != int32(i):
						bad = append(bad, fmt.Sprintf("frame %d: delivered to port %d, oracle says %d", seq, i, in.expect[seq]))
					case seen[seq]:
						bad = append(bad, fmt.Sprintf("frame %d delivered twice", seq))
					case !bytes.Equal(pkt.Data, in.frames[seq]):
						bad = append(bad, fmt.Sprintf("frame %d corrupted", seq))
					default:
						seen[seq] = true
						okDeliveries++
					}
				}
			}
		})
	}
	readers := cfg.traffic
	if len(in.churn) > 0 {
		readers++
		u.s.Spawn(u.hB, "churn", func(p *sim.Proc) {
			defer func() { exited++ }()
			t0 := p.Now()
			for k, f := range in.churn {
				// Half a gap after every churnEvery-th frame.
				at := t0 + time.Duration((k+1)*cfg.churnEvery)*cfg.gap - cfg.gap/2
				p.Sleep(at - p.Now())
				slot := cfg.traffic + k%cfg.decoys
				if k%4 == 3 {
					t := rec.start()
					u.ports[slot].Close(p)
					rec.end("pfdev.Port.Close", t, int64(k))
					t = rec.start()
					u.ports[slot] = u.dev.Open(p)
					rec.end("pfdev.Port.Open", t, int64(k))
				}
				t := rec.start()
				if err := u.ports[slot].SetFilter(p, f); err != nil {
					bad = append(bad, fmt.Sprintf("churn %d: %v", k, err))
				}
				rec.end("pfdev.Port.SetFilter", t, int64(k))
			}
		})
	}
	u.s.Spawn(u.hA, "sender", func(p *sim.Proc) {
		t0 := p.Now()
		for i, fr := range in.frames {
			if i%window == 0 {
				marks = append(marks, time.Now())
			}
			t := rec.start()
			if err := u.nicA.Transmit(fr); err != nil {
				bad = append(bad, fmt.Sprintf("transmit %d: %v", i, err))
			}
			rec.end("ethersim.NIC.Transmit", t, int64(i))
			p.Sleep(t0 + time.Duration(i+1)*cfg.gap - p.Now())
		}
		marks = append(marks, time.Now())
		senderDone = true
	})

	simC0, hostC0 := u.s.Counters, u.hB.Counters
	builds0, patches0 := u.dev.TableBuilds, u.dev.TablePatches
	var prof *profiler
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	rec.beginPhase("measure")
	t := time.Now()
	u.s.Run(0)
	wall := time.Since(t)
	rec.endPhase()
	if prof != nil {
		var err error
		var cpuTime time.Duration
		if res.Samples, cpuTime, err = prof.stop(); err != nil {
			return nil, err
		}
		res.CPUs = cpuTime.Seconds()
	}
	runtime.ReadMemStats(&ms1)

	n := len(in.frames)
	res.Packets, res.WallS = n, wall.Seconds()
	perFrame := make([]time.Duration, len(marks)-1)
	for k := range perFrame {
		perFrame[k] = marks[k+1].Sub(marks[k]) / time.Duration(window)
	}
	sort.Slice(perFrame, func(a, b int) bool { return perFrame[a] < perFrame[b] })
	res.P50us, res.P99us = quantile(perFrame, 0.50), quantile(perFrame, 0.99)
	if exited != readers {
		bad = append(bad, fmt.Sprintf("%d of %d reader/churner processes still parked", readers-exited, readers))
	}

	// Reconciliation: every frame sent is delivered or dropped, once.
	var portDrops, queued, batchReads, batchPkts uint64
	for _, port := range u.ports {
		st := port.Stats()
		portDrops += st.Dropped
		queued += uint64(st.Queued)
		batchReads += st.BatchReads
		batchPkts += st.BatchPackets
	}
	kernDrops, nicDrops := u.dev.KernelDrops, u.nicB.Drops
	if got := uint64(delivered) + kernDrops + portDrops + nicDrops + queued; got != uint64(n) {
		bad = append(bad, fmt.Sprintf("sent %d != delivered %d + kernel drops %d + port drops %d + NIC drops %d + queued %d",
			n, delivered, kernDrops, portDrops, nicDrops, queued))
	}
	expDrops := 0
	for i, e := range in.expect {
		if e < 0 && !seen[i] {
			expDrops++
		}
	}
	res.OK = okDeliveries + min(expDrops, int(kernDrops))
	res.Errors = bad

	sc, hc := u.s.Counters.Sub(simC0), u.hB.Counters.Sub(hostC0)
	per := func(v uint64) float64 { return float64(v) / float64(n) }
	res.Counts = map[string]float64{
		"delivered":       float64(delivered),
		"kernel_drops":    float64(kernDrops),
		"port_drops":      float64(portDrops),
		"nic_drops":       float64(nicDrops),
		"ctx_switches":    float64(sc.ContextSwitches),
		"syscalls":        float64(sc.Syscalls),
		"kernel_entries":  float64(sc.KernelEntries),
		"filter_applied":  float64(hc.FilterApplied),
		"filter_instrs":   float64(hc.FilterInstrs),
		"batch_reads":     float64(batchReads),
		"batch_packets":   float64(batchPkts),
		"table_builds":    float64(u.dev.TableBuilds - builds0),
		"table_patches":   float64(u.dev.TablePatches - patches0),
		"virtual_end_ns":  float64(u.s.Now()),
		"wakeups":         float64(sc.Wakeups),
		"packets_matched": float64(hc.PacketsMatched),
	}
	res.Layer = map[string]float64{
		"sim.ctx_switches_per_pkt":   per(sc.ContextSwitches),
		"sim.syscalls_per_pkt":       per(sc.Syscalls),
		"sim.kernel_entries_per_pkt": per(sc.KernelEntries),
		"filter.applied_per_pkt":     per(hc.FilterApplied),
		"filter.instrs_per_pkt":      per(hc.FilterInstrs),
		"pfdev.table_patches":        float64(u.dev.TablePatches - patches0),
		"pfdev.table_builds":         float64(u.dev.TableBuilds - builds0),
		"pfdev.pkts_per_read":        float64(batchPkts) / float64(max(batchReads, 1)),
		"pfdev.kernel_drops":         float64(kernDrops),
		"pfdev.port_drops":           float64(portDrops),
		"ethersim.nic_drops":         float64(nicDrops),
		"live.send_ns":               0,
		"live.read_us":               0,
		"live.pkts_per_read":         0,
		"live.wire_rx":               0,
		"go.allocs_per_pkt":          per(ms1.Mallocs - ms0.Mallocs),
		"go.alloc_bytes_per_pkt":     per(ms1.TotalAlloc - ms0.TotalAlloc),
	}

	// The frames and oracle are benchmark state, not program state:
	// drop them before measuring the heap the universe keeps.
	in.frames, in.expect, seen = nil, nil, nil
	res.HeapMB = heapMB()
	runtime.KeepAlive(u)

	if mode == "replay" {
		if in, err = genSimInputs(cfg, seed, prepared); err != nil {
			return nil, err
		}
		replayLayers(res.Layer, in.filters, in.frames, in.churn, cfg.traffic, cfg.decoys, rec)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.name, seed))
		if err := writeSpans(path, runHeader(cfg.name, seed, runtime.GOMAXPROCS(0)), rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

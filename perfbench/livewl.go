package main

// The live workload: an in-process live.Start instance in checked mode
// with eight bound ports.  One UDP sender feeds the hottest port through
// the loopback interface and one control-socket reader drains it.  The
// load is a closed loop of liveInflight frames: the sender blocks on a
// credit the reader returns per frame received, so it never spins.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/live"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/workload"
)

const (
	livePorts    = 8
	liveInflight = 32
	livePool     = 4096 // distinct frames, reused with fresh sequence numbers
	liveSetups   = 10
	liveQueue    = 256
	// liveStall ends a run whose reader has heard nothing for this long
	// after the sender stopped: a frame was lost.
	liveStall = 2 * time.Second
	// liveRepDuration is how long one child runs the closed loop.
	liveRepDuration = 200 * time.Millisecond
)

// liveRig is one running instance with every port bound.
type liveRig struct {
	inst    *live.Instance
	ctl, rd *live.Client
	tx      *live.Sender
	ports   []int
}

func (r *liveRig) close() {
	if r.tx != nil {
		r.tx.Close()
	}
	if r.rd != nil {
		r.rd.Close()
	}
	if r.ctl != nil {
		r.ctl.Close()
	}
	r.inst.Close()
}

func setupLive(filters []filter.Filter, rec *recorder) (*liveRig, error) {
	inst, err := live.Start(live.ServeConfig{CtlAddr: "127.0.0.1:0", UDPAddr: "127.0.0.1:0",
		Opt: live.Options{Link: link, Mode: pfdev.EvalChecked}})
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	r := &liveRig{inst: inst}

	fail := func(err error) (*liveRig, error) {
		r.close()
		return nil, err
	}
	if r.ctl, err = live.DialControl(inst.CtlAddr()); err != nil {
		return fail(err)
	}
	for i, f := range filters {
		t := rec.start()
		id, err := r.ctl.Open(liveQueue, false, false)
		rec.end("live.Client.Open", t, -1)
		if err != nil {
			return fail(fmt.Errorf("open port %d: %w", i, err))
		}
		t = rec.start()
		err = r.ctl.SetFilter(id, f)
		rec.end("live.Client.SetFilter", t, -1)
		if err != nil {
			return fail(fmt.Errorf("setfilter port %d: %w", i, err))
		}
		r.ports = append(r.ports, id)
	}
	if r.rd, err = live.DialControl(inst.CtlAddr()); err != nil {
		return fail(err)
	}
	if r.tx, err = live.DialWire(inst.UDPAddr()); err != nil {
		return fail(err)
	}
	return r, nil
}

// The hot port is bound last, so the priority scan tests every filter
// before it accepts.
const hot = livePorts - 1

// genLiveInputs returns the bound filters, the frame pool for the hot
// port and the oracle's verdict for each pooled frame.
func genLiveInputs(seed int64) (filters []filter.Filter, pool [][]byte, expect []int32) {
	filters = make([]filter.Filter, livePorts)
	for i := range filters {
		filters[i] = pup.SocketFilter(link, 10, trafficSocket(i))
	}
	gen := workload.NewGenerator(seed, link, workload.Mix{PctPF: 100}, []uint32{trafficSocket(hot)})
	pool = make([][]byte, livePool)
	for i := range pool {
		pool[i] = gen.Frame(2, 1)
	}
	expect, _ = oracle(filters, pool)
	return filters, pool, expect
}

func runLive(seed int64, mode string, _ []byte) (*repResult, error) {
	traced := mode != "plain"
	filters, pool, expect := genLiveInputs(seed)

	var mainRec, txRec, rxRec *recorder
	if traced {
		epoch := time.Now()
		mainRec, txRec, rxRec = newRecorder("main", epoch), newRecorder("sender", epoch), newRecorder("reader", epoch)
	}
	res := &repResult{Counts: map[string]float64{}}
	var rig *liveRig
	for i := 0; i < liveSetups; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC()
		mainRec.beginPhase("setup")
		t := time.Now()
		r, err := setupLive(filters, mainRec)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		mainRec.endPhase()
		rig = r
	}
	defer rig.close()

	var (
		credits  = make(chan struct{}, liveInflight) // semaphore: one slot per frame in flight
		sentAt   [2 * livePool]atomic.Int64          // send time by seq; far more slots than frames in flight
		nsent    atomic.Int64
		senderOK = make(chan struct{})
		quit     = make(chan struct{}) // closed when the reader stops
		sendErr  error
		wg       sync.WaitGroup
	)
	lats := make([]time.Duration, 0, 1<<19)
	var bad []string
	received, reads, okFrames := 0, 0, 0

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
	mainRec.beginPhase("measure")
	epoch := time.Now()
	stopAt := epoch.Add(liveRepDuration)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(senderOK)
		buf := make([]byte, 0, 2048)
		for seq := 0; time.Now().Before(stopAt); seq++ {
			select {
			case credits <- struct{}{}:
			case <-quit:
				return
			}
			buf = stampSeq(append(buf[:0], pool[seq%livePool]...), uint32(seq))
			sentAt[seq%len(sentAt)].Store(int64(time.Since(epoch)))
			t := txRec.start()
			err := rig.tx.Send(buf)
			txRec.end("live.Sender.Send", t, int64(seq))
			if err != nil {
				sendErr = fmt.Errorf("send %d: %w", seq, err)
				return
			}
			nsent.Store(int64(seq + 1))
		}
	}()

	hotID := rig.ports[hot]
	lastHeard := time.Now()
read:
	for {
		select {
		case <-senderOK:
			if int64(received) >= nsent.Load() {
				break read
			}
			if time.Since(lastHeard) > liveStall {
				bad = append(bad, fmt.Sprintf("reader stalled: %d of %d frames received", received, nsent.Load()))
				break read
			}
		default:
		}
		t := rxRec.start()
		pkts, err := rig.rd.Read(hotID, 0, 50*time.Millisecond)
		rxRec.end("live.Client.Read", t, -1)
		reads++
		if err != nil {
			bad = append(bad, fmt.Sprintf("read: %v", err))
			break read
		}
		now := time.Since(epoch)
		for _, pkt := range pkts {
			<-credits
			received++
			lastHeard = time.Now()
			seq, ok := frameSeq(pkt)
			if !ok {
				bad = append(bad, "unknown frame")
				continue
			}
			want := pool[int(seq)%livePool]
			lats = append(lats, now-time.Duration(sentAt[int(seq)%len(sentAt)].Load()))
			switch {
			case expect[int(seq)%livePool] != int32(hot):
				bad = append(bad, fmt.Sprintf("frame %d: delivered to the hot port, oracle says %d", seq, expect[int(seq)%livePool]))
			case len(pkt) != len(want) || !bytes.Equal(pkt[:pupIDOffset], want[:pupIDOffset]) ||
				!bytes.Equal(pkt[pupIDOffset+4:], want[pupIDOffset+4:]):
				bad = append(bad, fmt.Sprintf("frame %d corrupted", seq))
			default:
				okFrames++
			}
		}
	}
	wall := time.Since(epoch)
	close(quit)
	wg.Wait()
	mainRec.endPhase()
	if prof != nil {
		var err error
		var cpuTime time.Duration
		if res.Samples, cpuTime, err = prof.stop(); err != nil {
			return nil, err
		}
		res.CPUs = cpuTime.Seconds()
	}
	runtime.ReadMemStats(&ms1)
	if sendErr != nil {
		bad = append(bad, sendErr.Error())
	}
	sent := int(nsent.Load())
	if sent == 0 {
		return nil, fmt.Errorf("no frames sent")
	}

	t := mainRec.start()
	st, err := rig.ctl.Stats()
	mainRec.end("live.Client.Stats", t, -1)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	bad = append(bad, reconcileLive(st, uint64(sent), uint64(received))...)

	res.Packets, res.WallS, res.OK, res.Errors = sent, wall.Seconds(), okFrames, bad
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	res.P50us, res.P99us = quantile(lats, 0.50), quantile(lats, 0.99)

	var portDrops uint64
	var hotStats pfdev.PortStats
	for _, ps := range st.Ports {
		portDrops += ps.Dropped
		if ps.ID == hotID {
			hotStats = ps
		}
	}
	rig.inst.Dev.Counts() // orders the tracer reads below after the device's writes
	evals := rig.inst.Tracer.Counter(rig.inst.Dev.Name(), "pf.evals").Value()
	instrs := rig.inst.Tracer.Counter(rig.inst.Dev.Name(), "pf.instrs").Value()
	builds, patches := rig.inst.Dev.TableMaint()
	per := func(v uint64) float64 { return float64(v) / float64(sent) }
	var wireRx uint64
	if st.Wire != nil {
		wireRx = st.Wire.Received
	}
	res.Layer = map[string]float64{
		"sim.ctx_switches_per_pkt":   0,
		"sim.syscalls_per_pkt":       0,
		"sim.kernel_entries_per_pkt": 0,
		"filter.applied_per_pkt":     per(evals),
		"filter.instrs_per_pkt":      per(instrs),
		"pfdev.table_patches":        float64(patches),
		"pfdev.table_builds":         float64(builds),
		"pfdev.pkts_per_read":        float64(hotStats.BatchPackets) / float64(max(hotStats.BatchReads, 1)),
		"pfdev.kernel_drops":         float64(st.Device.KernelDrops),
		"pfdev.port_drops":           float64(portDrops),
		"ethersim.nic_drops":         0,
		"live.send_ns":               txRec.meanNs("live.Sender.Send"),
		"live.read_us":               rxRec.meanNs("live.Client.Read") / 1e3,
		"live.pkts_per_read":         float64(received) / float64(reads),
		"live.wire_rx":               float64(wireRx),
		"go.allocs_per_pkt":          per(ms1.Mallocs - ms0.Mallocs),
		"go.alloc_bytes_per_pkt":     per(ms1.TotalAlloc - ms0.TotalAlloc),
	}

	// The frames and samples are benchmark state: drop them before
	// measuring the heap the instance keeps.
	lats, pool, expect = nil, nil, nil
	res.HeapMB = heapMB()
	runtime.KeepAlive(rig)

	if mode == "replay" {
		_, pool, _ = genLiveInputs(seed)
		replayLayers(res.Layer, filters, pool, nil, 0, 0, mainRec)
		path := filepath.Join(traceDir, fmt.Sprintf("live-loopback-seed%d.json", seed))
		if err := writeSpans(path, runHeader("live-loopback", seed, runtime.GOMAXPROCS(0)), mainRec, txRec, rxRec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// reconcileLive applies the load driver's exact accounting: every frame
// sent reached the wire and the device, every span was created and
// finished, and deliveries plus typed drops add up to the frames sent.
func reconcileLive(st *live.StatsReport, sent, received uint64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if st.Wire == nil {
		fail("no wire statistics")
	} else if st.Wire.Received != sent {
		fail("wire received %d of %d frames", st.Wire.Received, sent)
	}
	if st.Device.Received != sent {
		fail("device received %d of %d frames", st.Device.Received, sent)
	}
	sp := st.Spans
	if sp == nil {
		fail("no span statistics")
		return bad
	}
	if sp.Created != sent {
		fail("spans created %d != sent %d", sp.Created, sent)
	}
	if sp.Live != 0 {
		fail("%d spans still live", sp.Live)
	}
	if sp.DeliveredUser+sp.TotalDrops != sp.Created {
		fail("%d delivered + %d dropped != %d created", sp.DeliveredUser, sp.TotalDrops, sp.Created)
	}
	if received != sp.DeliveredUser {
		fail("reader drained %d, spans say %d delivered", received, sp.DeliveredUser)
	}
	var matched, portDrops uint64
	for _, ps := range st.Ports {
		matched += ps.Matched
		portDrops += ps.Dropped
	}
	if matched != received+portDrops+uint64(st.Device.QueuedNow) {
		fail("%d matched != %d delivered + %d port drops + %d queued", matched, received, portDrops, st.Device.QueuedNow)
	}
	if sp.DeliveredUser+st.Device.KernelDrops+portDrops != sp.Created {
		fail("%d delivered + %d kernel drops + %d port drops != %d created",
			sp.DeliveredUser, st.Device.KernelDrops, portDrops, sp.Created)
	}
	return bad
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/ethersim"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
)

// MQCount is the packet count per exp-mq cell; cmd/pfbench -mq-n
// overrides it so CI can smoke-test the experiment cheaply.
var MQCount = 96

// mqQueues is the receive-queue sweep.
var mqQueues = []int{1, 2, 4, 8}

// mqPorts/mqFlows size the workload: a 64-port population fed by 64
// link-level flows, one flow per port, so the steering hash has
// something to spread and every frame pays the full demux.
const (
	mqPorts = 64
	mqFlows = 64
)

// mqMode names one evaluator configuration of the sweep.
type mqMode struct {
	name     string
	mode     pfdev.EvalMode
	coalesce int // interrupt-coalescing budget (0 = off)
}

func mqModes() []mqMode {
	return []mqMode{
		{name: "linear", mode: pfdev.EvalChecked},
		{name: "table", mode: pfdev.EvalTable},
		{name: "linear+coal", mode: pfdev.EvalChecked, coalesce: 8},
		{name: "table+coal", mode: pfdev.EvalTable, coalesce: 8},
	}
}

// mqResult is one cell of the sweep.
type mqResult struct {
	perPacket time.Duration
	received  int
	busy      int     // queues that carried at least one frame
	maxShare  float64 // busiest queue's share of per-queue kernel time
}

// mqFrame builds a Pup frame to the given socket from the given
// link-level source — the source is what the steering hash keys on, so
// each (src, socket) pair is one flow bound for one port.
func mqFrame(src ethersim.Addr, socket uint32) []byte {
	pkt := pup.Packet{Type: 1,
		Dst: pup.PortAddr{Net: 1, Host: 2, Socket: socket}}
	payload, _ := pkt.Marshal()
	return ethersim.Ether3Mb.Encode(2, src, ethersim.EtherTypePup3Mb, payload)
}

// measureMQ binds mqPorts socket filters at host B with no readers
// attached (queued frames are the terminal state, so the measured time
// is demultiplexing and nothing else) and blasts MQCount frames
// back-to-back, round-robin over mqFlows link-level flows.  The wire
// outpaces the demux by well over an order of magnitude at this port
// count, so a backlog forms on every receive queue and the per-queue
// kernel lanes are what bound the drain time: elapsed/packet is the
// per-packet kernel demux cost, and it falls as queues are added.
func measureMQ(queues int, m mqMode) mqResult {
	opts := pfdev.Options{Mode: m.mode, Queues: queues, CoalesceBudget: m.coalesce}
	if m.coalesce > 0 {
		opts.CoalesceDelay = 2 * time.Millisecond
	}
	r := newRig(rigOptions{link: ethersim.Ether3Mb, pf: opts})
	count := MQCount
	r.nicB.QueueLimit = 4 * count

	frames := make([][]byte, mqFlows)
	for i := range frames {
		frames[i] = mqFrame(ethersim.Addr(100+i), uint32(0x1000+i))
	}

	var res mqResult
	var t0 time.Duration

	r.s.Spawn(r.hB, "dest", func(p *sim.Proc) {
		for i := 0; i < mqPorts; i++ {
			port := r.devB.Open(p)
			port.SetFilter(p, pup.SocketFilter(ethersim.Ether3Mb, 10, uint32(0x1000+i)))
			port.SetQueueLimit(p, 4*count)
		}
	})
	r.s.Spawn(r.hA, "src", func(p *sim.Proc) {
		// Binding the population is setup, not measurement.
		p.Sleep(time.Duration(60+3*mqPorts) * time.Millisecond)
		r.hB.ResetAccounting()
		t0 = p.Now()
		for i := 0; i < count; i++ {
			r.nicA.Transmit(frames[i%mqFlows])
		}
	})
	end := r.s.Run(60 * time.Second)

	for _, n := range r.nicB.QueueRx() {
		res.received += int(n)
	}
	if res.received == 0 {
		return res
	}
	res.perPacket = (end - t0) / time.Duration(res.received)

	// Per-queue spread, from the per-queue KernelTime tags.
	var total, max time.Duration
	for q, n := range r.nicB.QueueRx() {
		if n > 0 {
			res.busy++
		}
		qt := r.hB.KernelTime[fmt.Sprintf("driver.q%d", q)] +
			r.hB.KernelTime[fmt.Sprintf("filter.q%d", q)] +
			r.hB.KernelTime[fmt.Sprintf("pf.q%d", q)]
		total += qt
		if qt > max {
			max = qt
		}
	}
	if queues == 1 {
		res.busy, res.maxShare = 1, 1
	} else if total > 0 {
		res.maxShare = float64(max) / float64(total)
	}
	return res
}

// ExpMq measures RSS-style multi-queue receive: per-packet kernel
// demux cost as receive queues are added, under the linear priority
// scan and the merged decision table, with and without per-queue
// interrupt coalescing.  Both evaluators are compute-bound at this
// population — the wire outpaces them by an order of magnitude — so
// parallel demux lanes cut per-packet cost nearly in proportion to
// the busy-queue count, and coalescing's saved kernel entries compose
// with the parallelism instead of competing with it.
func ExpMq() Table {
	t := Table{
		ID:    "exp-mq",
		Title: "Multi-queue receive: per-packet kernel demux cost vs receive queues (64 ports, 64 flows)",
		Columns: []string{"Queues", "linear", "vs 1q", "table", "vs 1q",
			"linear+coal", "table+coal", "busy", "max share"},
		Notes: []string{
			"64 socket-filter ports, no readers: queued frames are the terminal state, so elapsed/packet is pure kernel demux",
			"64 link-level flows round-robin; the flow hash steers each flow to one queue, per-flow order holds by construction",
			"shape: both evaluators are compute-bound here, so per-packet cost falls nearly in proportion to the busy-queue count",
			"shape: at 4 queues the linear cost is <= 0.6x the single-queue cost — the acceptance ratio the shape test pins",
			"shape: coalescing shaves per-frame kernel entries on every queue; its savings compose with the parallel lanes",
			"busy/max-share columns describe the linear cell: queues that carried frames, and the busiest queue's share of per-queue kernel time",
			fmt.Sprintf("%d packets per cell; every cell is a deterministic universe, swept across the parsim pool", MQCount),
		},
	}
	modes := mqModes()
	type cellID struct {
		queues int
		mode   mqMode
	}
	var cells []cellID
	for _, q := range mqQueues {
		for _, m := range modes {
			cells = append(cells, cellID{q, m})
		}
	}
	// The heaviest cells have the fewest queues: the longest serial
	// drains.
	results := parsim.MapHeaviestFirst(cells, sweepWorkers(),
		func(a, b cellID) bool { return a.queues < b.queues },
		func(c cellID) mqResult { return measureMQ(c.queues, c.mode) })
	base := make(map[string]time.Duration, len(modes))
	for mi, m := range modes {
		base[m.name] = results[mi].perPacket // queues == 1 row is first
	}
	ratio := func(r mqResult, mode string) string {
		if r.received == 0 || base[mode] <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", float64(r.perPacket)/float64(base[mode]))
	}
	for qi, q := range mqQueues {
		byMode := make(map[string]mqResult, len(modes))
		for mi, m := range modes {
			byMode[m.name] = results[qi*len(modes)+mi]
		}
		cell := func(name string) string {
			r := byMode[name]
			if r.received == 0 {
				return "n/a"
			}
			return ms(r.perPacket)
		}
		lin := byMode["linear"]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", q),
			cell("linear"), ratio(lin, "linear"),
			cell("table"), ratio(byMode["table"], "table"),
			cell("linear+coal"), cell("table+coal"),
			fmt.Sprintf("%d", lin.busy),
			fmt.Sprintf("%.2f", lin.maxShare),
		})
	}
	return t
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/shm"
	"repro/internal/sim"
)

// ScaleCount is the packet count per exp-scale cell; cmd/pfbench
// -scale-n overrides it so CI can smoke-test the experiment cheaply.
var ScaleCount = 48

// scalePorts is the sweep of active port counts.  The paper's largest
// measured population is a handful of filters; the sweep extends the
// §3.2/§7 scaling argument to three orders of magnitude.
var scalePorts = []int{2, 8, 32, 128, 512, 1024}

// scaleMode names one delivery configuration of the sweep.
type scaleMode struct {
	name     string
	mode     pfdev.EvalMode
	ring     bool // drain through a mapped shm ring
	coalesce int  // interrupt-coalescing budget (0 = off)
}

func scaleModes() []scaleMode {
	return []scaleMode{
		{name: "linear", mode: pfdev.EvalChecked},
		{name: "table", mode: pfdev.EvalTable},
		{name: "ring", mode: pfdev.EvalChecked, ring: true},
		{name: "coalesced", mode: pfdev.EvalChecked, coalesce: 8},
	}
}

// scaleResult is one cell of the sweep.
type scaleResult struct {
	perPacket time.Duration
	received  int
	scans     float64 // filters applied per received packet
}

// measureScale binds nPorts filters at host B — all but a handful are
// decision-table-extractable socket conjunctions, the rest are OR
// programs that force the linear fallback even in table mode — and
// paces traffic at the *last-scanned* conjunction port (lowest
// priority, so linear mode pays the full population on every frame).
// It reports steady-state elapsed time and filters scanned per
// received packet.
func measureScale(nPorts int, m scaleMode) scaleResult {
	opts := pfdev.Options{Mode: m.mode, CoalesceBudget: m.coalesce}
	if m.coalesce > 0 {
		opts.CoalesceDelay = 4 * time.Millisecond
	}
	r := newRig(rigOptions{link: ethersim.Ether3Mb, pf: opts})
	count := ScaleCount
	const hotSocket = 0x50
	nFallback := 4
	if nPorts < 8 {
		nFallback = nPorts / 2
	}
	nConj := nPorts - nFallback
	r.nicB.QueueLimit = 4 * count

	var res scaleResult
	var t0, t1 time.Duration

	r.s.Spawn(r.hB, "dest", func(p *sim.Proc) {
		// Cold conjunction ports: tree-extractable, never match.
		for i := 0; i < nConj-1; i++ {
			port := r.devB.Open(p)
			port.SetFilter(p, pup.SocketFilter(ethersim.Ether3Mb, 10, uint32(0x1000+i)))
		}
		// Fallback ports: OR programs the decision table cannot
		// extract, so they are scanned linearly for every frame in
		// both modes; their sockets never carry traffic.
		for i := 0; i < nFallback; i++ {
			a, b := uint16(0x9000+2*i), uint16(0x9000+2*i+1)
			port := r.devB.Open(p)
			port.SetFilter(p, filter.Filter{Priority: 10, Program: filter.NewBuilder().
				PushWord(8).PushLit(a).Op(filter.EQ).
				PushWord(8).PushLit(b).Op(filter.EQ).
				Or().MustProgram()})
		}
		// The hot port, at the lowest priority: linear mode scans the
		// entire population before reaching it.
		hot := r.devB.Open(p)
		hot.SetFilter(p, pup.SocketFilter(ethersim.Ether3Mb, 1, hotSocket))
		hot.SetQueueLimit(p, 4*count)
		// The timeout must survive the worst cell: at 1024 ports the
		// linear scan alone costs >100 mSec per frame, and the sender
		// does not start until the whole population is bound.
		hot.SetTimeout(p, 5*time.Second)
		if m.ring {
			slots := 64
			reg := shm.NewRegistry(r.hB)
			seg, err := reg.Map(p, "scale-ring", hot.RingLayoutSize(slots))
			if err != nil {
				return
			}
			if err := hot.MapRing(p, seg, slots); err != nil {
				return
			}
		}
		for res.received < count {
			if m.ring {
				batch, err := hot.ReapBatch(p)
				if err != nil {
					return
				}
				res.received += len(batch)
			} else {
				batch, err := hot.ReadBatch(p)
				if err != nil {
					return
				}
				res.received += len(batch)
			}
			t1 = p.Now()
		}
	})
	r.s.Spawn(r.hA, "src", func(p *sim.Proc) {
		// Binding nPorts filters is setup, not measurement; so is the
		// one-time ring mapping.
		p.Sleep(time.Duration(60+3*nPorts) * time.Millisecond)
		t0 = p.Now()
		r.hB.ResetAccounting()
		frame := pupFrame(1, hotSocket)
		for i := 0; i < count; i++ {
			r.nicA.Transmit(frame)
			p.Sleep(700 * time.Microsecond)
		}
	})
	r.s.Run(60 * time.Second)

	if res.received > 0 {
		res.perPacket = (t1 - t0) / time.Duration(res.received)
		res.scans = float64(r.hB.Counters.FilterApplied) / float64(res.received)
	}
	return res
}

// ExpScale extends §3.2/§7 to three orders of magnitude of active
// ports: per-packet demultiplexing cost as the population grows from 2
// to 1024, under the linear priority scan, the merged decision table,
// ring delivery and interrupt coalescing.  Linear cost must grow with
// the population; table cost must stay pinned to the (constant-size)
// fallback set plus one tree walk.
func ExpScale() Table {
	t := Table{
		ID:    "exp-scale",
		Title: "Demultiplexing cost vs active port population (traffic to the last-scanned port)",
		Columns: []string{"Active ports", "linear", "scans",
			"table", "scans", "ring", "coalesced"},
		Notes: []string{
			"all but 4 ports bind tree-extractable socket conjunctions; 4 bind OR fallbacks that stay on the linear path in every mode",
			"shape: linear scans/packet equals the population; the merged table counts as one application per packet (fallback work is charged in instructions), so its per-packet cost is flat",
			"shape: ring and coalesced modes shave copy and kernel-entry cost but still pay the linear filter scan — orthogonal savings",
			fmt.Sprintf("%d packets per cell; every cell is a deterministic universe, swept across the parsim pool", ScaleCount),
		},
	}
	modes := scaleModes()
	type cellID struct {
		ports int
		mode  scaleMode
	}
	var cells []cellID
	for _, ports := range scalePorts {
		for _, m := range modes {
			cells = append(cells, cellID{ports, m})
		}
	}
	// The largest populations are the heaviest cells.
	results := parsim.MapHeaviestFirst(cells, sweepWorkers(),
		func(a, b cellID) bool { return a.ports > b.ports },
		func(c cellID) scaleResult { return measureScale(c.ports, c.mode) })
	for pi, ports := range scalePorts {
		byMode := make(map[string]scaleResult, len(modes))
		for mi, m := range modes {
			byMode[m.name] = results[pi*len(modes)+mi]
		}
		cell := func(name string) (string, string) {
			r := byMode[name]
			if r.received == 0 {
				return "n/a", "n/a"
			}
			return ms(r.perPacket), fmt.Sprintf("%.1f", r.scans)
		}
		lin, linScans := cell("linear")
		tab, tabScans := cell("table")
		ring, _ := cell("ring")
		coal, _ := cell("coalesced")
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", ports), lin, linScans, tab, tabScans, ring, coal,
		})
	}
	return t
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/parsim"
	"repro/internal/pfdev"
	"repro/internal/pup"
	"repro/internal/sim"
	"repro/internal/workload"
)

// StormCount is the victim packet count per exp-storm cell;
// cmd/pfbench -storm-n overrides it so CI can smoke-test cheaply.
var StormCount = 24

// stormHostiles is the sweep of hostile burn-port counts.  Each one
// binds the worst legal filter (MaxProgramLen instructions, always
// reject), so every frame on the wire — hit or miss — charges the
// kernel the full population's burn before the victim's cheap filter
// is even consulted.
var stormHostiles = []int{0, 2, 8}

// stormResult is one cell of the sweep.
type stormResult struct {
	received    int
	elapsed     time.Duration
	residency   time.Duration // victim queue residency (tail-latency proxy)
	quarantines uint64
	sheds       uint64
	fuelLo      uint64 // least / most fuel charged to a hostile port:
	fuelHi      uint64 // equal shares mean the governor is fair
}

// goodput is the victim's delivered frames per virtual second.
func (r stormResult) goodput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.received) / (float64(r.elapsed) / float64(time.Second))
}

// measureStorm delivers StormCount frames to a victim socket filter
// while nHostile max-length burn filters tax the interface and an
// equal stream of churn frames (matching nobody) doubles the scan
// load.  With the governor off the burn is paid on every frame; with
// it on, the hostile ports are quarantined and the victim's path
// clears.
func measureStorm(nHostile int, gov bool) stormResult {
	opts := pfdev.Options{}
	if gov {
		opts.Gov = pfdev.DefaultGovConfig()
	}
	r := newRig(rigOptions{link: ethersim.Ether3Mb, pf: opts})
	count := StormCount
	const victimSocket = 0x50
	r.nicB.QueueLimit = 8 * count

	var res stormResult
	var t0, t1 time.Duration
	hostiles := make([]*pfdev.Port, 0, nHostile)

	r.s.Spawn(r.hB, "victim", func(p *sim.Proc) {
		for i := 0; i < nHostile; i++ {
			hp := r.devB.Open(p)
			hp.SetFilter(p, filter.Filter{Priority: 20, Program: workload.BurnProgram()})
			hostiles = append(hostiles, hp)
		}
		port := r.devB.Open(p)
		port.SetFilter(p, pup.SocketFilter(ethersim.Ether3Mb, 10, victimSocket))
		port.SetQueueLimit(p, 4*count)
		// The worst ungoverned cell pays nHostile full burns per frame
		// on a saturated kernel; the timeout must outlive that.
		port.SetTimeout(p, 5*time.Second)
		for res.received < count {
			batch, err := port.ReadBatch(p)
			if err != nil {
				break
			}
			res.received += len(batch)
			t1 = p.Now()
		}
		vs := port.Stats()
		res.residency = vs.AvgResidency
		res.fuelLo, res.fuelHi = ^uint64(0), 0
		for _, hp := range hostiles {
			hs := hp.Stats()
			res.quarantines += hs.Quarantines
			if hs.FuelSpent < res.fuelLo {
				res.fuelLo = hs.FuelSpent
			}
			if hs.FuelSpent > res.fuelHi {
				res.fuelHi = hs.FuelSpent
			}
		}
		if len(hostiles) == 0 {
			res.fuelLo = 0
		}
		res.sheds = r.devB.GovStats(p).AdmissionSheds
	})
	r.s.Spawn(r.hA, "storm", func(p *sim.Proc) {
		p.Sleep(time.Duration(20+5*nHostile) * time.Millisecond)
		t0 = p.Now()
		r.hB.ResetAccounting()
		hit := pupFrame(1, victimSocket)
		for i := 0; i < count; i++ {
			r.nicA.Transmit(hit)
			p.Sleep(350 * time.Microsecond)
			// The churn half of the storm: a frame matching no filter,
			// so the whole scan is wasted work the governor must bill.
			r.nicA.Transmit(pupFrame(1, uint32(0x4000+i)))
			p.Sleep(350 * time.Microsecond)
		}
	})
	r.s.Run(120 * time.Second)

	if res.received > 0 {
		res.elapsed = t1 - t0
	}
	return res
}

// ExpStorm measures graceful degradation under adversarial load: a
// victim port's goodput and queue residency as hostile max-length burn
// filters join the interface, with the resource governor off and on.
// Ungoverned, the victim collapses with the hostile population;
// governed, quarantine caps each hostile port's burn at its token
// burst and the victim's service rate survives.
func ExpStorm() Table {
	t := Table{
		ID:    "exp-storm",
		Title: "Victim goodput under hostile burn filters, governor off vs on",
		Columns: []string{"Hostile ports", "off", "on", "ratio",
			"resid off", "resid on", "quarantines", "fuel lo/hi"},
		Notes: []string{
			"each hostile port binds the worst legal filter: 128 instructions, always reject, so every frame pays the full population's burn before the victim's filter runs",
			"half the storm is churn traffic matching no filter — pure scan load the governor must bill to the ports that caused it",
			"shape: ungoverned goodput falls with the hostile population; governed goodput stays near the clean-path rate once quarantine caps each offender at its burst",
			"fairness: fuel lo/hi are the least and most instruction units billed to any hostile port — near-equal shares mean no offender is favored",
			fmt.Sprintf("%d victim packets per cell; every cell is a deterministic universe, swept across the parsim pool", StormCount),
		},
	}
	type cellID struct {
		hostile int
		gov     bool
	}
	var cells []cellID
	for _, h := range stormHostiles {
		cells = append(cells, cellID{h, false}, cellID{h, true})
	}
	// The ungoverned cells with the most hostile ports are the
	// heaviest: the ungoverned 8-hostile universe dominates the sweep's
	// wall clock.
	results := parsim.MapHeaviestFirst(cells, sweepWorkers(),
		func(a, b cellID) bool {
			if a.gov != b.gov {
				return !a.gov
			}
			return a.hostile > b.hostile
		},
		func(c cellID) stormResult { return measureStorm(c.hostile, c.gov) })
	for hi, h := range stormHostiles {
		off, on := results[2*hi], results[2*hi+1]
		ratio := "n/a"
		if off.goodput() > 0 {
			ratio = fmt.Sprintf("%.1fx", on.goodput()/off.goodput())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%.0f pkt/sec", off.goodput()),
			fmt.Sprintf("%.0f pkt/sec", on.goodput()),
			ratio,
			ms(off.residency), ms(on.residency),
			fmt.Sprintf("%d", on.quarantines),
			fmt.Sprintf("%d/%d", on.fuelLo, on.fuelHi),
		})
	}
	return t
}

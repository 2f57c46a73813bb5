package pfdev

// Resource governance: the defensive layer that keeps a hostile (or
// merely buggy) port from monopolizing the kernel.  §6.1 measures 41%
// of packet-filter receive time going to predicate evaluation, and the
// language's only built-in defense is the program-length cap — a port
// binding a maximum-length filter still charges the kernel
// MaxProgramLen instruction units for every packet on the wire, paid
// by every other user of the interface.  The governor closes that hole
// with three cooperating mechanisms, all on the engine's clock (virtual
// time in the simulated device, wall time in live mode) and all
// strictly opt-in (the zero Options leave every path byte-identical):
//
//   - Per-port CPU token buckets.  Each port accrues instruction units
//     at GovConfig.Rate up to Burst; a filter evaluation is admitted
//     only when the bucket covers the program's static worst case
//     (filter.Info.WorstInstrs, scaled per evaluation mode) and is
//     charged its actual cost afterwards.  Well-behaved filters never
//     notice; a MaxInstrsProgram drains its bucket within a few
//     packets.
//
//   - Quarantine.  An over-budget port's filter is skipped entirely —
//     no FilterApply setup, no instruction charges — for a penalty
//     window that doubles on prompt re-offense up to QuarantineMax and
//     resets to QuarantineBase after QuarantineCool of good standing.
//     A packet that then matches no port is accounted DropQuota, not
//     DropNoMatch: the governor, not the filter set, decided its fate.
//
//   - Admission control.  When the kernel-wide backlog (queued packets
//     plus, in the simulated device, matched frames awaiting their
//     "pf" charge) crosses
//     AdmissionHigh, new frames are shed at demux entry — before any
//     filter cost is paid — as DropAdmission, until the backlog drains
//     to AdmissionLow (classic high/low watermark hysteresis, so the
//     controller does not flap at the boundary).
//
// Every governed drop is a typed span termination, so the span
// conservation property (created == delivered + drops + live) holds
// exactly with governance enabled.

import (
	"time"

	"repro/internal/filter"
)

// GovConfig configures the device's resource governor.  The zero value
// disables it entirely.
type GovConfig struct {
	// Enabled turns the governor on.  All other fields are defaulted
	// from DefaultGovConfig when left zero.
	Enabled bool
	// Rate is the token refill rate in instruction units per virtual
	// second.  One unit is one checked-interpreter step (the same unit
	// eval() charges, so the faster §7 strategies cost proportionally
	// less fuel too).
	Rate float64
	// Burst is the bucket capacity in instruction units.
	Burst int
	// QuarantineBase is the first penalty window; QuarantineMax caps
	// the doubling backoff; QuarantineCool is how long a port must
	// stay out of trouble before its penalty resets to the base.
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	QuarantineCool time.Duration
	// AdmissionHigh and AdmissionLow are the backlog watermarks (in
	// packets: queued on ports plus pending delivery) at which input
	// shedding starts and stops.
	AdmissionHigh int
	AdmissionLow  int
}

// DefaultGovConfig returns the enabled governor with its default
// calibration.  The numbers are sized against the virtual cost model
// (FilterInstr = 28µs, so one virtual CPU sustains ~35.7k instruction
// units per second): Rate lets a port use a generous minority share of
// the filter budget, Burst keeps an over-budget port's post-quarantine
// relapse to a couple of evaluations, and the watermarks sit below the
// point where the pending queue's latency would dwarf per-packet cost.
func DefaultGovConfig() GovConfig {
	return GovConfig{
		Enabled:        true,
		Rate:           20000,
		Burst:          256,
		QuarantineBase: 50 * time.Millisecond,
		QuarantineMax:  time.Second,
		QuarantineCool: 400 * time.Millisecond,
		AdmissionHigh:  192,
		AdmissionLow:   64,
	}
}

// WithDefaults returns the config with zero fields filled from the
// default calibration; a disabled config is returned unchanged.
func (g GovConfig) WithDefaults() GovConfig {
	if !g.Enabled {
		return g
	}
	def := DefaultGovConfig()
	if g.Rate <= 0 {
		g.Rate = def.Rate
	}
	if g.Burst <= 0 {
		g.Burst = def.Burst
	}
	if g.QuarantineBase <= 0 {
		g.QuarantineBase = def.QuarantineBase
	}
	if g.QuarantineMax < g.QuarantineBase {
		g.QuarantineMax = def.QuarantineMax
	}
	if g.QuarantineCool <= 0 {
		g.QuarantineCool = def.QuarantineCool
	}
	if g.AdmissionHigh <= 0 {
		g.AdmissionHigh = def.AdmissionHigh
	}
	if g.AdmissionLow <= 0 || g.AdmissionLow >= g.AdmissionHigh {
		g.AdmissionLow = g.AdmissionHigh / 3
	}
	return g
}

// govBoundFor computes a filter's pre-admission price: its static
// worst-case cost in the same scaled units eval() charges for the
// given mode.  A program the checked interpreter would accept despite
// failing validation (EvalChecked binds anything) is priced at its
// full length, a sound upper bound on executed words.
func govBoundFor(mode EvalMode, p filter.Program, opt filter.ValidateOptions) int {
	info, err := filter.Validate(p, opt)
	if err != nil {
		return len(p)
	}
	switch mode {
	case EvalFast:
		return (info.WorstInstrs*3 + 4) / 5
	case EvalCompiled:
		return (info.Instrs + 2) / 3
	default: // EvalChecked, EvalTable
		return info.WorstInstrs
	}
}

// govRefillNow lazily accrues tokens for the time elapsed on the
// engine's clock.
func (pc *PortCore) govRefillNow(now time.Duration, cfg *GovConfig) {
	if now > pc.govRefill {
		pc.govTokens += cfg.Rate * (now - pc.govRefill).Seconds()
		if b := float64(cfg.Burst); pc.govTokens > b {
			pc.govTokens = b
		}
		pc.govRefill = now
	}
}

// govAdmit decides whether this port's filter may run against the
// current frame.  A port in its penalty window, or whose bucket cannot
// cover the filter's worst case (which quarantines it), is skipped.
func (pc *PortCore) govAdmit(now time.Duration, cfg *GovConfig) bool {
	pc.govRefillNow(now, cfg)
	if now < pc.quarUntil {
		pc.quarSkips++
		return false
	}
	if pc.govTokens < float64(pc.govBound) {
		pc.govQuarantine(now, cfg)
		pc.quarSkips++
		return false
	}
	return true
}

// govQuarantine starts (or extends) the port's penalty window: prompt
// re-offense after the previous window doubles the penalty, good
// standing for QuarantineCool earns a fresh start at the base.
func (pc *PortCore) govQuarantine(now time.Duration, cfg *GovConfig) {
	if pc.quarPenalty == 0 || now-pc.quarUntil > cfg.QuarantineCool {
		pc.quarPenalty = cfg.QuarantineBase
	} else {
		pc.quarPenalty *= 2
		if pc.quarPenalty > cfg.QuarantineMax {
			pc.quarPenalty = cfg.QuarantineMax
		}
	}
	pc.quarUntil = now + pc.quarPenalty
	pc.quarantines++
}

// govCharge debits an admitted evaluation's actual cost.  In linear
// modes the charge never exceeds the pre-admitted bound; in table mode
// a port's attributed share of a deep shared walk may briefly drive
// the bucket negative, which simply delays its re-admission.
func (pc *PortCore) govCharge(units int) {
	pc.govTokens -= float64(units)
	pc.fuelSpent += uint64(units)
}

// admitFrame updates the shed/accept hysteresis and reports whether a
// newly arrived frame may enter the demultiplexer.  The backlog is the
// packets queued on ports plus the owner's pending deliveries.
func (e *Engine) admitFrame(pending int) bool {
	g := &e.opt.Gov
	if !g.Enabled {
		return true
	}
	backlog := e.queuedTotal + pending
	if e.shedding {
		if backlog <= g.AdmissionLow {
			e.shedding = false
		}
	} else if backlog >= g.AdmissionHigh {
		e.shedding = true
	}
	return !e.shedding
}

// GovStats is the governor's device-wide report: the admission
// controller's state and the port buckets' aggregate activity.
type GovStats struct {
	Shedding        bool   `json:"shedding"`
	Backlog         int    `json:"backlog"`
	AdmissionSheds  uint64 `json:"admission_sheds"`
	Quarantines     uint64 `json:"quarantines"`
	QuarantineSkips uint64 `json:"quarantine_skips"`
	FuelSpent       uint64 `json:"fuel_spent"`
}

// GovStats reports the governor's statistics; pending is the owner's
// backlog beyond the port queues, as for Admit.  Ports already closed
// no longer contribute.
func (e *Engine) GovStats(pending int) GovStats {
	gs := GovStats{
		Shedding:       e.shedding,
		Backlog:        e.queuedTotal + pending,
		AdmissionSheds: e.admissionSheds,
	}
	for _, pc := range e.ports {
		gs.Quarantines += pc.quarantines
		gs.QuarantineSkips += pc.quarSkips
		gs.FuelSpent += pc.fuelSpent
	}
	return gs
}

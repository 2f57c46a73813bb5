package pfdev

// The demux engine: the one implementation of the packet filter's
// matching semantics, shared by the simulated device (Device, this
// package) and the live device (package live).  It owns the port set
// and its §3.2 priority/busy-first order, bind-time validation and
// compilation (§4), filter evaluation with its per-mode instruction
// scaling, the linear scan and the merged decision table (§7) with its
// incremental maintenance, the resource governor, the per-port input
// queues and the statistics blocks.
//
// The engine charges nothing and blocks on nothing.  Its owner
// supplies the clock, the tracer and the trace host label, and turns
// the plain counts a match returns into whatever its world bills: the
// simulated device converts them to virtual CPU time and host
// counters, the live device ignores them.  Waking blocked readers,
// system-call and copy charges, receive queues and rings stay with the
// owners.  Nothing here touches a sim.Host or an ethersim.NIC.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/filter"
	"repro/internal/trace"
)

// Engine is the mode-agnostic packet-filter core.  It is not safe for
// concurrent use: the simulated device runs it from one event loop,
// the live device under its mutex.
type Engine struct {
	opt    Options
	env    filter.Env
	clk    clock.Clock
	tracer func() *trace.Tracer
	name   string

	ports   []*PortCore // sorted: priority desc, busy-first within priority
	nextID  int
	pktSeen uint64

	// table is the published merged evaluator (EvalTable mode).  It is
	// immutable: open/close/setfilter/quarantine churn patches it with
	// filter.Table.Insert/Remove and swaps the pointer, so a match pass
	// that snapshotted the old pointer finishes on a consistent table
	// while the new one is already published — the RCU discipline that
	// keeps matching stall-free under churn.  nil means "no table
	// built yet"; the next match builds one from scratch.
	table *filter.Table

	// reorderPending defers a §3.2 busy-first reorder that came due in
	// the middle of a coalesced burst to the burst boundary, so every
	// frame within one burst observes a single scan order.
	reorderPending bool

	// Table-maintenance accounting (deterministic units from
	// filter.Table.Work): TableBuilds counts from-scratch builds,
	// TablePatches incremental insert/remove patches, and tableWork the
	// cumulative construction work — the churn benchmark's "rebuild
	// stall" metric.
	TableBuilds  uint64
	TablePatches uint64
	tableWork    uint64

	// tableBurst is the coalesced burst that last charged the table
	// walk's fixed FilterApply setup.
	tableBurst uint64

	// queueCap, when non-zero, caps the effective input-queue limit of
	// every port — the fault engine's "port-queue pressure" knob.
	queueCap int

	// Governor state (gov.go): queuedTotal tracks packets queued across
	// all ports O(1) for the admission controller's backlog.
	queuedTotal    int
	shedding       bool
	admissionSheds uint64

	// KernelDrops counts frames refused at demux entry or matched by no
	// filter.
	KernelDrops uint64

	treeScratch []*PortCore
}

// NewEngine creates an engine.  opt supplies the evaluation and
// governor settings (fields that configure an owner's receive path are
// ignored here); env is the filter environment bound into programs
// (PUSHHDRLEN); clk, tracer and name are the owner's time source,
// tracer lookup (called on use, so a tracer installed later is seen)
// and trace host label.
func NewEngine(opt Options, env filter.Env, clk clock.Clock, tracer func() *trace.Tracer, name string) *Engine {
	if opt.ReorderEvery <= 0 {
		opt.ReorderEvery = 64
	}
	opt.Gov = opt.Gov.WithDefaults()
	return &Engine{opt: opt, env: env, clk: clk, tracer: tracer, name: name}
}

// PortCore is the engine's half of one port: filter binding, match
// and governor state, the input queue and its statistics.  The owner's
// port type holds one and is reachable back through Owner.
type PortCore struct {
	eng   *Engine
	owner any
	id    int

	priority uint8
	prog     filter.Program
	pv       *filter.Prevalidated
	// flat is the flat compilation of prog.  Under EvalCompiled it is
	// the evaluator.  Under EvalTable it evaluates a quarantine-exit
	// transition packet (the port is admitted again before the
	// re-inserted filter is visible in the match's table snapshot) with
	// exactly the cost the table's own fallback path would charge; nil
	// when the program fails table-mode validation, in which case the
	// filter matches nothing — same as in the table.
	flat *filter.FlatProg
	// slot is the port's stable slot in the published decision table,
	// -1 while not resident (no filter bound, quarantined out, closed,
	// or the table not yet built).
	slot int

	// queue is head-indexed: qhead marks the first undelivered packet
	// and dequeues advance it instead of re-slicing, so the backing
	// array's capacity survives and the steady-state receive path
	// allocates nothing.
	queue      []Packet
	qhead      int
	queueLimit int
	maxQueued  int // high-water mark of the input queue
	dropped    uint64

	copyAll    bool
	stamp      bool
	closed     bool
	privileged bool // may bind filters above PrivilegedPriority

	matches uint64 // packets accepted (for busy-first reordering)
	instrs  uint64 // filter instruction words interpreted for this port
	reads   uint64 // successful single-packet reads
	batches uint64 // successful batch reads
	batched uint64 // packets returned by batch reads

	// Delivery-path counters only the simulated device's rings and
	// copies feed; they stay zero in live mode.
	reaps       uint64 // successful ReapBatch calls through the ring
	reaped      uint64 // packets returned by ReapBatch
	bytesCopied uint64 // payload bytes moved kernel<->user for this port
	bytesMapped uint64 // payload bytes delivered or sent in place
	descErrors  uint64 // hostile/malformed ring descriptors rejected

	// applyBurst is the coalesced burst that last charged this port's
	// fixed FilterApply setup.
	applyBurst uint64

	// Governor state (gov.go).  govTokens is the CPU token bucket in
	// instruction units, refilled lazily at govRefill; govBound is the
	// bound filter's scaled worst-case price, pre-admission checked
	// against the bucket.  quarUntil/quarPenalty implement the
	// doubling-backoff quarantine; tableActive mirrors the standing
	// baked into the merged decision table.
	govTokens   float64
	govRefill   time.Duration
	govBound    int
	quarUntil   time.Duration
	quarPenalty time.Duration
	tableActive bool
	fuelSpent   uint64 // instruction units charged against the bucket
	quarantines uint64 // times the port entered quarantine
	quarSkips   uint64 // filter evaluations skipped while quarantined

	// Queue-residency accounting: total and count of time delivered
	// packets spent on the input queue.
	qresSum time.Duration
	qresN   uint64

	qGauge *trace.Gauge // cached tracer gauge for queue depth

	// spanDropCtrs caches the per-port drop-taxonomy counters
	// ("pf.port<id>.span_drop.<reason>") so steady-state drops do not
	// build counter names.
	spanDropCtrs [trace.NumDropReasons]*trace.Counter
}

// Packet is one received packet as returned by Read: the complete
// frame including the data-link header ("The entire packet, including
// the data-link layer header, is returned, so that user programs may
// implement protocols that depend on header information", §3), plus
// the optional timestamp and the cumulative drop count (§3.3).
type Packet struct {
	Data  []byte
	Stamp time.Duration // reception time; zero unless stamping enabled
	Drops uint64        // packets lost on this port up to this packet

	// arrived is when the frame entered the packet-filter input path,
	// the start of the arrival-to-delivery latency the tracer reports.
	arrived time.Duration

	// slot, when non-zero, is 1 + the ring receive slot holding Data.
	// The slot stays reserved — free for neither deposit nor reuse —
	// until the packet is copied out (Read/ReadBatch) or, after a
	// reap, until the process's next drain syscall reclaims it.
	slot int

	// span is the packet's provenance span (0 when untracked).
	span uint64

	// qAt is when the packet entered the port queue; delivery
	// subtracts it to feed the port's queue-residency accounting.
	qAt time.Duration
}

// Span returns the packet's provenance span id (0 when untracked), so
// user-level protocol code can link its own verdicts — checksum
// rejects, routing failures — back into the packet's causal tree.
func (pkt Packet) Span() uint64 { return pkt.span }

// DefaultQueueLimit bounds a port's input queue unless configured
// otherwise (§3.3: the user controls "the maximum length of the
// per-port input queue").
const DefaultQueueLimit = 32

// Open adds a port to the engine.  owner is the caller's port object,
// returned by PortCore.Owner so match results lead back to it.
func (e *Engine) Open(owner any) *PortCore {
	pc := &PortCore{
		eng:         e,
		owner:       owner,
		id:          e.nextID,
		queueLimit:  DefaultQueueLimit,
		tableActive: true,
		slot:        -1,
	}
	if g := e.opt.Gov; g.Enabled {
		// The bucket starts full at open time — rebinding a filter
		// deliberately does not refill it, so a hostile port cannot
		// launder its debt through SetFilter.
		pc.govTokens = float64(g.Burst)
		pc.govRefill = e.clk.Now()
	}
	e.nextID++
	e.ports = append(e.ports, pc)
	e.sortPorts()
	return pc
}

// Ports returns the open ports in scan order.  The slice is the
// engine's own; callers must not modify it, and closing a port
// changes it.
func (e *Engine) Ports() []*PortCore { return e.ports }

// Queued returns the number of packets queued across all ports.
func (e *Engine) Queued() int { return e.queuedTotal }

// ID returns the port's engine-unique id.
func (pc *PortCore) ID() int { return pc.id }

// Owner returns the owner object passed to Open.
func (pc *PortCore) Owner() any { return pc.owner }

// Closed reports whether the port has been closed.
func (pc *PortCore) Closed() bool { return pc.closed }

// Queued returns the input-queue depth.
func (pc *PortCore) Queued() int { return pc.qlen() }

// Matches returns how many packets this port's filter has accepted.
func (pc *PortCore) Matches() uint64 { return pc.matches }

// Priority returns the bound filter's priority.
func (pc *PortCore) Priority() uint8 { return pc.priority }

// SetQueueLimit sets the maximum input queue length (at least 1).
func (pc *PortCore) SetQueueLimit(n int) {
	if n < 1 {
		n = 1
	}
	pc.queueLimit = n
}

// SetCopyAll requests that packets accepted by this port's filter also
// be submitted to lower-priority filters (§3.2); monitors set it.
func (pc *PortCore) SetCopyAll(on bool) { pc.copyAll = on }

// SetStamp enables receive timestamping (§3.3).
func (pc *PortCore) SetStamp(on bool) { pc.stamp = on }

// SetFilter binds a filter to the port.  Under EvalFast/EvalCompiled
// the program is validated or compiled here, at bind time, not per
// packet.  A closed port refuses with ErrClosed: it holds no table
// slot any more, and must not disturb the ports that replaced it.
func (e *Engine) SetFilter(pc *PortCore, f filter.Filter) error {
	if pc.closed {
		return ErrClosed
	}
	if t := e.opt.PrivilegedPriority; t > 0 && f.Priority >= t && !pc.privileged {
		return ErrPriority
	}
	opt := filter.ValidateOptions{Extensions: e.opt.Extensions}
	switch e.opt.Mode {
	case EvalFast:
		pv, err := filter.Prevalidate(f.Program, opt)
		if err != nil {
			return err
		}
		pv.SetEnv(e.env)
		pc.pv = pv
	case EvalCompiled:
		fp, err := filter.Compile(f.Program, opt, e.env)
		if err != nil {
			return err
		}
		pc.flat = fp
	case EvalTable:
		// The merged table validates on insert; a program that fails
		// table-mode validation matches nothing rather than erroring.
		// The flat compilation here answers for quarantine-exit
		// transition packets.
		fp, err := filter.Compile(f.Program, filter.ValidateOptions{}, filter.Env{})
		if err != nil {
			fp = nil
		}
		pc.flat = fp
	default:
		// The checked interpreter accepts anything and fails per
		// packet, exactly like the original driver.
	}
	// Rebinding patches the old filter out of the published table and
	// the new one in (a quarantined port stays out until forgiven).
	e.tableRemovePort(pc)
	pc.prog = f.Program.Clone()
	pc.priority = f.Priority
	if e.opt.Gov.Enabled {
		pc.govBound = govBoundFor(e.opt.Mode, pc.prog, opt)
	}
	e.sortPorts()
	if !e.opt.Gov.Enabled || pc.tableActive {
		e.tableInsertPort(pc)
	}
	return nil
}

// eval applies the port's filter to a frame, returning acceptance and
// the cost in instruction units.  The unit is one *checked*
// interpreter step; the faster §7 evaluation strategies charge
// proportionally less: prevalidation removes the per-instruction
// validity/bounds/stack checks (~40% of the inner loop), and compiled
// filters skip instruction decode entirely (~1/3 the cost) — the
// ratios the real-time benchmarks in bench_test.go measure.
func (e *Engine) eval(pc *PortCore, frame []byte) (bool, int) {
	switch e.opt.Mode {
	case EvalFast:
		r := pc.pv.Run(frame)
		return r.Accept, (r.Instrs*3 + 4) / 5
	case EvalCompiled:
		return pc.flat.Run(frame).Accept, (pc.flat.Info().Instrs + 2) / 3
	default:
		var r filter.Result
		if e.opt.Extensions {
			r = filter.RunExt(pc.prog, frame, e.env)
		} else {
			r = filter.Run(pc.prog, frame)
		}
		return r.Accept, r.Instrs
	}
}

// Admit is demux entry for one frame: admission control first (a shed
// frame is accounted as DropAdmission and Admit returns false), then
// the arrival trace, the demux span mark and a due §3.2 busy-first
// reorder.  pending is the owner's backlog beyond the port queues
// (matched frames still awaiting delivery).  burst is the coalesced
// burst the frame belongs to (0: none); a reorder that comes due
// mid-burst is held until EndBurst so every frame of one burst
// observes a single scan order.
func (e *Engine) Admit(span uint64, pending int, burst uint64) bool {
	tr := e.tracer()
	now := e.clk.Now()
	if !e.admitFrame(pending) {
		// Overload: shed at demux entry, before any filter cost.
		e.admissionSheds++
		e.KernelDrops++
		if tr != nil {
			tr.Drop(now, e.name, "admission")
		}
		tr.SpanDrop(span, now, e.name, trace.DropAdmission)
		return false
	}
	if tr != nil {
		tr.PacketIn(now, e.name)
	}
	tr.SpanMark(span, trace.StageDemux, now)
	e.pktSeen++
	if e.opt.Reorder && e.pktSeen%uint64(e.opt.ReorderEvery) == 0 {
		if burst != 0 {
			e.reorderPending = true
		} else {
			e.reorder()
		}
	}
	return true
}

// EndBurst closes a coalesced burst: a reorder that came due mid-burst
// is applied now, at the burst boundary.
func (e *Engine) EndBurst() {
	if e.reorderPending {
		e.reorderPending = false
		e.reorder()
	}
}

// MatchCounts is the work one Match did, as plain counts for the owner
// to bill.
type MatchCounts struct {
	// Applied counts filter applications: one per filter run by the
	// linear scan, one per table walk.
	Applied int
	// Setups counts the fixed FilterApply setups not yet charged in the
	// current burst (within one burst each is charged once).
	Setups int
	// Instrs is the evaluation work in instruction units.
	Instrs int
	// Stall is the table-construction work done on the packet path (a
	// from-scratch rebuild under Options.FullRebuild), in
	// filter.Table.Work units.
	Stall int
	// QuarSkip reports that at least one quarantined filter was
	// skipped, so a no-match outcome is the governor's doing
	// (DropQuota) rather than the filter set's (DropNoMatch).
	QuarSkip bool
}

// Match applies the filters to a frame in scan order (figure 4-1) and
// appends the accepting ports to dst, which should be empty.  burst is
// the coalesced burst the frame belongs to (0: none).
func (e *Engine) Match(frame []byte, dst []*PortCore, burst uint64) ([]*PortCore, MatchCounts) {
	if e.opt.Mode == EvalTable {
		return e.tableMatch(frame, dst, burst)
	}
	return e.linearMatch(frame, dst, burst)
}

// linearMatch applies filters in priority order (figure 4-1).
func (e *Engine) linearMatch(frame []byte, dst []*PortCore, burst uint64) ([]*PortCore, MatchCounts) {
	tr := e.tracer()
	now := e.clk.Now()
	var mc MatchCounts
	accepted := dst
	gov := e.opt.Gov.Enabled
	for _, pc := range e.ports {
		if pc.closed || pc.prog == nil {
			continue
		}
		if gov && !pc.govAdmit(now, &e.opt.Gov) {
			// Quarantined: the filter is skipped outright — no setup
			// cost, no instruction charges, no chance to match.
			mc.QuarSkip = true
			continue
		}
		mc.Applied++
		if burst == 0 || pc.applyBurst != burst {
			// The fixed interpreter-setup cost; within one coalesced
			// burst it is charged once per port and amortized over
			// the burst's frames.
			mc.Setups++
			pc.applyBurst = burst
		}

		accept, instrs := e.eval(pc, frame)
		mc.Instrs += instrs
		pc.instrs += uint64(instrs)
		if gov {
			pc.govCharge(instrs)
		}
		if tr != nil {
			tr.FilterEval(now, e.name, pc.id, instrs, accept)
		}

		if !accept {
			continue
		}
		pc.matches++
		accepted = append(accepted, pc)
		if !pc.copyAll {
			// A non-copy-all accept ends the scan: later filters — even
			// at the same priority — do not see the packet.  Priority
			// ties resolve deterministically to the first accepting
			// port in the current scan order (priority descending,
			// busy-first within a priority), which is what makes the
			// §3.2 busy-first reordering pay off.  A copy-all accept
			// instead lets the packet continue to every later filter,
			// which is how monitors coexist with the monitored.
			// tableMatch implements the identical rule over the same
			// port order; the linear/table equivalence property pins
			// it.
			break
		}
	}
	return accepted, mc
}

// tableMatch uses the merged decision table.  v2 splits the work in
// two: the table answers "which filters accept this frame" (one tree
// walk plus lazily evaluated flat-code fallbacks), while the engine
// drives the scan over its ports in the same order as linearMatch —
// priority descending, busy-first within a priority — deciding
// governor admission at the moment each port is reached and stopping
// at the first non-copy-all accept, exactly like the linear rule.
// Scan order therefore never lives inside the table, which is what
// lets reorder() and sortPorts leave the table untouched.
//
// Work: one FilterApply setup for starting the walk (amortized over a
// coalesced burst like the linear path's per-port setup) plus one
// instruction unit per unit of work the match actually did — each
// decision-tree node whose packet word was examined, plus every
// instruction the fallbacks the scan actually reached interpreted
// (fallbacks past the stopping port are never run, mirroring the
// linear early exit).  Fallback filters charge their own interpreter
// runs; the tree walk's path depth is split evenly across the reached
// tree-accepting ports (remainder to the first; port -1 only when the
// walk's work benefited no reached port).
//
// Governor transitions patch the published table in place: a port
// denied admission is removed (its filter becomes unreachable, like a
// closed port's), and a forgiven port is re-inserted, with its
// transition packet evaluated directly against its own flat code since
// the already-snapshotted table cannot answer for it.  The snapshot
// taken at the top of the match keeps this packet's view consistent
// while the patched table is published for the next one.
func (e *Engine) tableMatch(frame []byte, dst []*PortCore, burst uint64) ([]*PortCore, MatchCounts) {
	tr := e.tracer()
	now := e.clk.Now()
	gov := e.opt.Gov.Enabled
	var mc MatchCounts
	if e.table == nil {
		// A rebuild on the packet path is a stall: the frame waits
		// while the kernel recompiles the whole filter set.  Its work is
		// reported so the owner can bill it; incremental patches run at
		// setfilter/close time, off this path.
		w0 := e.tableWork
		e.rebuildTable()
		mc.Stall = int(e.tableWork - w0)
	}
	tbl := e.table // this match's immutable snapshot
	treeIdxs, edges := tbl.TreeMatch(frame)
	total := edges

	slotAccepted := func(slot int) bool {
		for _, i := range treeIdxs {
			if i == slot {
				return true
			}
		}
		return false
	}

	accepted, treeAccepts := dst, e.treeScratch[:0]
	for _, pc := range e.ports {
		if pc.closed || pc.prog == nil {
			continue
		}
		// The slot this port held in the snapshot, before any
		// transition this scan performs on it (slots are stable under
		// patching, so other ports' transitions cannot move it).
		slot := pc.slot
		if gov {
			if !pc.govAdmit(now, &e.opt.Gov) {
				// Quarantined: skipped outright, no setup cost, no
				// instruction charges, no chance to match — and no
				// longer reachable through the published table.
				mc.QuarSkip = true
				if pc.tableActive {
					pc.tableActive = false
					e.tableRemovePort(pc)
				}
				continue
			}
			if !pc.tableActive {
				// Forgiven: the filter re-enters dispatch.
				pc.tableActive = true
				e.tableInsertPort(pc)
			}
		}

		var accept bool
		ran := false // a flat-code run charged to this port
		instrs := 0
		switch {
		case slot >= 0:
			if fp := tbl.Fallback(slot); fp != nil {
				r := fp.Run(frame)
				accept, instrs, ran = r.Accept, r.Instrs, true
			} else {
				accept = slotAccepted(slot)
			}
		case pc.flat != nil:
			// Not in the snapshot (typically the quarantine-exit
			// transition packet): the port's own flat code answers.
			r := pc.flat.Run(frame)
			accept, instrs, ran = r.Accept, r.Instrs, true
		}
		if ran {
			total += instrs
			pc.instrs += uint64(instrs)
			if gov {
				pc.govCharge(instrs)
			}
			if tr != nil {
				tr.FilterEval(now, e.name, pc.id, instrs, accept)
			}
		} else if accept {
			treeAccepts = append(treeAccepts, pc)
		}
		if !accept {
			continue
		}
		pc.matches++
		accepted = append(accepted, pc)
		if !pc.copyAll {
			// Same rule as linearMatch: a non-copy-all accept ends the
			// scan; ports past this point are not reached at all.
			break
		}
	}

	switch {
	case len(treeAccepts) > 0:
		share := edges / len(treeAccepts)
		extra := edges % len(treeAccepts)
		for k, pc := range treeAccepts {
			in := share
			if k < extra {
				in++
			}
			pc.instrs += uint64(in)
			if gov {
				pc.govCharge(in)
			}
			if tr != nil {
				tr.FilterEval(now, e.name, pc.id, in, true)
			}
		}
	case edges > 0:
		// The walk's work benefited no reached port; it stays
		// device-level.
		if tr != nil {
			tr.FilterEval(now, e.name, -1, edges, false)
		}
	}
	e.treeScratch = treeAccepts[:0]

	mc.Applied = 1
	mc.Instrs = total
	if burst == 0 || e.tableBurst != burst {
		mc.Setups = 1
		e.tableBurst = burst
	}
	return accepted, mc
}

// rebuildTable compiles the full filter set from scratch — the first
// bind under incremental maintenance (at setfilter time), or any churn
// under Options.FullRebuild (on the match path, as a stall).
func (e *Engine) rebuildTable() {
	var filters []filter.Filter
	gov := e.opt.Gov.Enabled
	for _, pc := range e.ports {
		pc.slot = -1
	}
	var included []*PortCore
	for _, pc := range e.ports {
		if pc.closed || pc.prog == nil || (gov && !pc.tableActive) {
			continue
		}
		filters = append(filters, filter.Filter{Priority: pc.priority, Program: pc.prog})
		included = append(included, pc)
	}
	e.table = filter.BuildTable(filters)
	for i, pc := range included {
		pc.slot = i
	}
	e.TableBuilds++
	e.tableWork += uint64(e.table.Work())
}

// tableInsertPort patches the port's current filter into the published
// table (or schedules a full rebuild under Options.FullRebuild).  The
// first bind builds the table eagerly: under incremental maintenance
// all construction happens at setfilter/close time, so the match path
// never compiles — the from-scratch-on-match path is the FullRebuild
// baseline's alone.
func (e *Engine) tableInsertPort(pc *PortCore) {
	if e.opt.Mode != EvalTable || pc.closed || pc.prog == nil {
		return
	}
	if e.opt.FullRebuild {
		e.table = nil
		return
	}
	if e.table == nil {
		e.rebuildTable()
		return
	}
	before := e.table.Work()
	nt, slot := e.table.Insert(filter.Filter{Priority: pc.priority, Program: pc.prog})
	e.table = nt
	pc.slot = slot
	e.TablePatches++
	e.tableWork += uint64(nt.Work() - before)
}

// tableRemovePort patches the port's filter out of the published table
// (or schedules a full rebuild under Options.FullRebuild).
func (e *Engine) tableRemovePort(pc *PortCore) {
	if e.opt.Mode != EvalTable {
		return
	}
	if e.opt.FullRebuild {
		e.table = nil
		pc.slot = -1
		return
	}
	if e.table == nil || pc.slot < 0 {
		return
	}
	before := e.table.Work()
	e.table = e.table.Remove(pc.slot)
	pc.slot = -1
	e.TablePatches++
	e.tableWork += uint64(e.table.Work() - before)
}

// TableWork returns the cumulative decision-table construction work in
// deterministic filter.Table.Work units — the churn benchmark's
// maintenance-cost metric.
func (e *Engine) TableWork() uint64 { return e.tableWork }

// sortPorts re-sorts the port list: priority descending, preserving
// the current relative order within equal priorities (which reorder()
// adjusts by busyness).  The decision table is order-free in v2 — the
// engine scans its ports itself — so sorting does not touch it.
func (e *Engine) sortPorts() {
	// Insertion sort keeps it stable and the lists are short.
	for i := 1; i < len(e.ports); i++ {
		for j := i; j > 0 && e.ports[j-1].priority < e.ports[j].priority; j-- {
			e.ports[j-1], e.ports[j] = e.ports[j], e.ports[j-1]
		}
	}
}

// reorder moves busier filters earlier within each equal-priority
// group (§3.2).  Equal-priority ties are resolved by the engine's own
// scan in both evaluation modes, so the decision table stays valid
// across reorders.
func (e *Engine) reorder() {
	for i := 1; i < len(e.ports); i++ {
		for j := i; j > 0 &&
			e.ports[j-1].priority == e.ports[j].priority &&
			e.ports[j-1].matches < e.ports[j].matches; j-- {
			e.ports[j-1], e.ports[j] = e.ports[j], e.ports[j-1]
		}
	}
}

// DropUnmatched accounts a frame no filter accepted: DropQuota when
// the match skipped a quarantined filter (quarSkip), DropNoMatch
// otherwise.
func (e *Engine) DropUnmatched(span uint64, quarSkip bool) {
	e.KernelDrops++
	tr := e.tracer()
	now := e.clk.Now()
	reason, label := trace.DropNoMatch, "nomatch"
	if quarSkip {
		reason, label = trace.DropQuota, "quota"
	}
	if tr != nil {
		tr.Drop(now, e.name, label)
	}
	tr.SpanDrop(span, now, e.name, reason)
}

// queued returns the live (undelivered) packets in queue order.
func (pc *PortCore) queued() []Packet { return pc.queue[pc.qhead:] }

// qlen returns the input-queue depth.
func (pc *PortCore) qlen() int { return len(pc.queue) - pc.qhead }

// queueFull reports whether the port's input queue is at its effective
// limit (its own, capped by the engine-wide queue cap).
func (pc *PortCore) queueFull() bool {
	limit := pc.queueLimit
	if c := pc.eng.queueCap; c > 0 && c < limit {
		limit = c
	}
	return pc.qlen() >= limit
}

// Enqueue adds a frame to the port's input queue, reporting whether it
// was queued (false: dropped on overflow, accounted as DropPortQueue).
// arrived is when the frame entered demux, the start of the
// arrival-to-delivery latency.  The owner wakes its readers.
func (e *Engine) Enqueue(pc *PortCore, frame []byte, arrived time.Duration, span uint64) bool {
	if pc.queueFull() {
		e.overflow(pc, span, trace.DropPortQueue)
		return false
	}
	e.push(pc, frame, arrived, span, 0)
	return true
}

// overflow accounts one frame the port could not queue.
func (e *Engine) overflow(pc *PortCore, span uint64, reason trace.DropReason) {
	pc.dropped++
	if tr := e.tracer(); tr != nil {
		now := e.clk.Now()
		tr.Drop(now, e.name, "queue")
		if span != 0 {
			pc.spanDropCounter(tr, reason).Add(1)
		}
		tr.SpanDrop(span, now, e.name, reason)
		tr.SpanPort(span, pc.id)
	}
}

// push appends a packet to the port's input queue; slot is the ring
// slot handle the frame was deposited in (0: none).
func (e *Engine) push(pc *PortCore, frame []byte, arrived time.Duration, span uint64, slot int) {
	now := e.clk.Now()
	pkt := Packet{Data: frame, Drops: pc.dropped, arrived: arrived, slot: slot, span: span, qAt: now}
	if pc.stamp {
		pkt.Stamp = now
	}
	pc.queue = append(pc.queue, pkt)
	e.queuedTotal++
	if pc.qlen() > pc.maxQueued {
		pc.maxQueued = pc.qlen()
	}
	tr := e.tracer()
	if tr != nil {
		pc.depthGauge(tr).Set(int64(pc.qlen()))
		tr.Enqueue(now, e.name, pc.id, pc.qlen())
	}
	tr.SpanMark(span, trace.StageQueue, now)
	tr.SpanPort(span, pc.id)
}

// spanDropCounter returns (caching) the per-port taxonomy counter for
// one drop reason.
func (pc *PortCore) spanDropCounter(tr *trace.Tracer, reason trace.DropReason) *trace.Counter {
	c := pc.spanDropCtrs[reason]
	if c == nil {
		c = tr.Counter(pc.eng.name, fmt.Sprintf("pf.port%d.span_drop.%s", pc.id, reason))
		pc.spanDropCtrs[reason] = c
	}
	return c
}

// depthGauge returns (caching) the tracer gauge for this port's queue
// depth.
func (pc *PortCore) depthGauge(tr *trace.Tracer) *trace.Gauge {
	if pc.qGauge == nil {
		pc.qGauge = tr.Gauge(pc.eng.name, fmt.Sprintf("pf.port%d.depth", pc.id))
	}
	return pc.qGauge
}

// popFront consumes n packets from the queue head, clearing consumed
// slots (so delivered frames are not retained by the kernel) and
// recycling the backing array once drained or mostly consumed.
func (pc *PortCore) popFront(n int) {
	for i := pc.qhead; i < pc.qhead+n; i++ {
		pc.queue[i] = Packet{}
	}
	pc.qhead += n
	pc.eng.queuedTotal -= n
	switch {
	case pc.qhead == len(pc.queue):
		pc.queue = pc.queue[:0]
		pc.qhead = 0
	case pc.qhead >= 32 && 2*pc.qhead >= len(pc.queue):
		kept := copy(pc.queue, pc.queue[pc.qhead:])
		for i := kept; i < len(pc.queue); i++ {
			pc.queue[i] = Packet{}
		}
		pc.queue = pc.queue[:kept]
		pc.qhead = 0
	}
}

// take dequeues up to max packets (0: all) from a non-empty queue and
// records their queue residency.
func (e *Engine) take(pc *PortCore, max int) []Packet {
	n := pc.qlen()
	if max > 0 && n > max {
		n = max
	}
	batch := make([]Packet, n)
	copy(batch, pc.queued()[:n])
	pc.popFront(n)
	now := e.clk.Now()
	for i := range batch {
		pc.qresSum += now - batch[i].qAt
	}
	pc.qresN += uint64(n)
	return batch
}

// takeOne dequeues the head packet of a non-empty queue and records
// its queue residency.
func (e *Engine) takeOne(pc *PortCore) Packet {
	pkt := pc.queue[pc.qhead]
	pc.popFront(1)
	pc.qresSum += e.clk.Now() - pkt.qAt
	pc.qresN++
	return pkt
}

// traceDelivered reports packets handed to the reading process: the
// queue depth, the dequeue, and each packet's delivery latency and span
// termination.
func (e *Engine) traceDelivered(pc *PortCore, pkts ...Packet) {
	tr := e.tracer()
	if tr == nil {
		return
	}
	now := e.clk.Now()
	pc.depthGauge(tr).Set(int64(pc.qlen()))
	tr.Dequeue(now, e.name, pc.id, pc.qlen(), len(pkts))
	for _, pkt := range pkts {
		tr.Deliver(now, e.name, pc.id, now-pkt.arrived)
		tr.SpanDelivered(pkt.span, now, e.name, pc.id)
	}
}

// Read dequeues the head packet of a non-empty queue as one
// single-packet read.
func (e *Engine) Read(pc *PortCore) Packet {
	pkt := e.takeOne(pc)
	pc.reads++
	e.traceDelivered(pc, pkt)
	return pkt
}

// ReadBatch dequeues up to max packets (0: all) from a non-empty queue
// as one batch read.
func (e *Engine) ReadBatch(pc *PortCore, max int) []Packet {
	batch := e.take(pc, max)
	pc.batches++
	pc.batched += uint64(len(batch))
	e.traceDelivered(pc, batch...)
	return batch
}

// Close removes the port: still-queued packets die as DropPortClose
// and its filter leaves the published table.  The owner wakes its
// readers.
func (e *Engine) Close(pc *PortCore) {
	if pc.closed {
		return
	}
	pc.closed = true
	e.queuedTotal -= pc.qlen()
	tr := e.tracer()
	now := e.clk.Now()
	for _, pkt := range pc.queued() {
		tr.SpanDrop(pkt.span, now, e.name, trace.DropPortClose)
	}
	pc.queue = nil
	pc.qhead = 0
	for i, q := range e.ports {
		if q == pc {
			e.ports = append(e.ports[:i], e.ports[i+1:]...)
			break
		}
	}
	e.tableRemovePort(pc)
}

// closeAll closes every port at once with queued packets dying for
// reason — a crash, where the kernel's port state (table included)
// vanishes — and returns the closed ports so the owner can wake their
// readers.
func (e *Engine) closeAll(reason trace.DropReason) []*PortCore {
	tr := e.tracer()
	now := e.clk.Now()
	ports := e.ports
	e.ports = nil
	e.table = nil
	e.reorderPending = false
	e.queuedTotal = 0
	e.shedding = false
	for _, pc := range ports {
		for _, pkt := range pc.queued() {
			tr.SpanDrop(pkt.span, now, e.name, reason)
		}
		pc.closed = true
		pc.queue = nil
		pc.qhead = 0
		pc.slot = -1
	}
	return ports
}

// PortStats is the per-port statistics block reported by Port.Stats
// and Device.PortStats — the §3.3 "count of the number of packets
// lost" generalized to everything the kernel already tracks per port.
// It is fed from the same counters the trace layer reads.
type PortStats struct {
	ID           int    `json:"id"`
	Priority     uint8  `json:"priority"`
	Queued       int    `json:"queued"`        // packets on the input queue now
	MaxQueued    int    `json:"max_queued"`    // input-queue high-water mark
	Dropped      uint64 `json:"dropped"`       // lost to queue overflow
	Matched      uint64 `json:"matched"`       // accepted by this port's filter
	FilterInstrs uint64 `json:"filter_instrs"` // instruction words interpreted
	Reads        uint64 `json:"reads"`         // single-packet reads
	BatchReads   uint64 `json:"batch_reads"`   // ReadBatch calls
	BatchPackets uint64 `json:"batch_packets"` // packets returned by ReadBatch
	RingReaps    uint64 `json:"ring_reaps"`    // ReapBatch calls through a mapped ring
	ReapPackets  uint64 `json:"reap_packets"`  // packets returned by ReapBatch
	BytesCopied  uint64 `json:"bytes_copied"`  // payload bytes moved kernel<->user
	BytesMapped  uint64 `json:"bytes_mapped"`  // payload bytes delivered/sent in place
	DescErrors   uint64 `json:"desc_errors"`   // malformed ring descriptors rejected

	// Governor and residency accounting (gov.go); the governed fields
	// stay zero on an ungoverned device.
	FuelSpent       uint64        `json:"fuel_spent,omitempty"`       // instruction units charged
	Quarantines     uint64        `json:"quarantines,omitempty"`      // penalty windows entered
	QuarantineSkips uint64        `json:"quarantine_skips,omitempty"` // evaluations skipped under quarantine
	AvgResidency    time.Duration `json:"avg_residency_ns,omitempty"` // mean queue residency of delivered packets
}

// Stats reports the port's statistics block (kernel bookkeeping only;
// no system call is charged — the device status read PortStats is the
// user-visible ioctl).
func (pc *PortCore) Stats() PortStats {
	var res time.Duration
	if pc.qresN > 0 {
		res = pc.qresSum / time.Duration(pc.qresN)
	}
	return PortStats{
		ID:           pc.id,
		Priority:     pc.priority,
		Queued:       pc.qlen(),
		MaxQueued:    pc.maxQueued,
		Dropped:      pc.dropped,
		Matched:      pc.matches,
		FilterInstrs: pc.instrs,
		Reads:        pc.reads,
		BatchReads:   pc.batches,
		BatchPackets: pc.batched,
		RingReaps:    pc.reaps,
		ReapPackets:  pc.reaped,
		BytesCopied:  pc.bytesCopied,
		BytesMapped:  pc.bytesMapped,
		DescErrors:   pc.descErrors,

		FuelSpent:       pc.fuelSpent,
		Quarantines:     pc.quarantines,
		QuarantineSkips: pc.quarSkips,
		AvgResidency:    res,
	}
}

// PortStats returns the statistics blocks of every open port in
// port-id order.
func (e *Engine) PortStats() []PortStats {
	stats := make([]PortStats, 0, len(e.ports))
	for _, pc := range e.ports {
		stats = append(stats, pc.Stats())
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	return stats
}

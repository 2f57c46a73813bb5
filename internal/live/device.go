// Package live hosts the packet-filter engine on real time and real
// goroutines: the simulated device's demux engine (pfdev.Engine — the
// filter language, evaluation modes, priority scan, busy-first
// reordering, decision table, resource governor, port queues and
// provenance spans) driven by frames arriving from a loopback-UDP wire
// (wire.go) instead of the virtual Ethernet.
//
// The simulated device bills the engine's match counts as virtual CPU
// so the paper's §6 numbers are reproducible; the live device ignores
// them (wall time is measured, not modeled).  Everything else is the
// same code, so every verdict, counter and drop reason is identical —
// the mode-equivalence test pins that the two devices, given the same
// filter set and packet sequence, fill in the same pfdev.PortStats
// field by field.  This package adds only the device mutex, blocking
// reads on condition variables with clock timers, the multi-queue
// workers (mq.go), the UDP wire and the control socket.
//
// Concurrency model: one mutex serializes the whole device — the wire
// receive goroutine delivering frames, control-socket goroutines
// reading ports and stats, and timer callbacks.  That mirrors the
// original kernel driver (filter evaluation ran at splimp, reads under
// the kernel lock) and lets the trace/span subsystem, written for the
// single-threaded simulator, be reused unmodified.
package live

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/ethersim"
	"repro/internal/filter"
	"repro/internal/pfdev"
	"repro/internal/trace"
)

// Errors returned by port operations, the live counterparts of
// pfdev's.
var (
	ErrTimeout    = errors.New("live: read timed out")
	ErrClosed     = errors.New("live: port closed")
	ErrWouldBlock = errors.New("live: no packet queued")
)

// Options configures a live Device.
type Options struct {
	// Link is the data link the carried frames belong to; it decides
	// header geometry for filter environments (PUSHHDRLEN) and the
	// socket-filter word offsets.  Default Ether10Mb.
	Link ethersim.LinkType
	// Mode selects the evaluation strategy, exactly as in pfdev.
	Mode pfdev.EvalMode
	// Reorder enables §3.2 busy-first reordering every ReorderEvery
	// packets (default 64).
	Reorder      bool
	ReorderEvery int
	// Extensions permits the §7 extended instructions.
	Extensions bool
	// Gov configures the resource governor; the zero value disables
	// it.  Quarantine windows and token refill run on the device
	// clock — wall seconds in live mode.
	Gov pfdev.GovConfig
	// FullRebuild disables incremental decision-table maintenance, as
	// pfdev.Options.FullRebuild does: every churn event discards the
	// table and the next match rebuilds it from scratch.
	FullRebuild bool
	// Clock is the device's time source.  Defaults to clock.NewWall();
	// tests may substitute any clock.Clock.
	Clock clock.Clock
	// Tracer, when non-nil, receives the same instrumentation the
	// simulated device emits (counters, spans, flight recorder).  All
	// tracer access is serialized under the device mutex.
	Tracer *trace.Tracer
	// Name is the host label used in trace attribution (default
	// "live").
	Name string
	// Queues selects the number of RSS-style receive queues.  Values
	// <= 1 keep the classic path: Input runs the whole demux inline on
	// the caller's goroutine.  With N > 1, Input steers each frame by
	// its flow tuple (ethersim.LinkType.SteerQueue — the same hash the
	// simulated NIC uses) onto one of N queue workers, the live
	// counterpart of pfdev's per-queue kernel lanes.  One flow maps to one queue
	// and one worker drains each queue in FIFO order, so per-flow
	// arrival order is preserved by construction.  Queue hand-off uses
	// blocking sends: a backed-up queue exerts backpressure on the wire
	// receive loop instead of shedding silently, keeping the load
	// driver's exact frame reconciliation intact.
	Queues int
}

// Device is the live-mode packet-filter device.
type Device struct {
	mu   sync.Mutex
	eng  *pfdev.Engine
	clk  clock.Clock
	tr   *trace.Tracer
	name string
	opt  Options

	received    uint64 // frames handed to Input
	portScratch []*pfdev.PortCore

	// Multi-queue receive state (mq.go).  rxqs is built once in
	// NewDevice and never mutated, so Input may read it without the
	// mutex; qrx counts frames demuxed per queue (under mu).
	rxqs   []chan []byte
	qrx    []uint64
	mqQuit chan struct{}
	mqWG   sync.WaitGroup

	closed bool
}

// NewDevice creates a live device.
func NewDevice(opt Options) *Device {
	if opt.Clock == nil {
		opt.Clock = clock.NewWall()
	}
	if opt.Name == "" {
		opt.Name = "live"
	}
	d := &Device{clk: opt.Clock, tr: opt.Tracer, name: opt.Name, opt: opt}
	d.eng = pfdev.NewEngine(pfdev.Options{
		Mode:         opt.Mode,
		Reorder:      opt.Reorder,
		ReorderEvery: opt.ReorderEvery,
		Extensions:   opt.Extensions,
		Gov:          opt.Gov,
		FullRebuild:  opt.FullRebuild,
	}, filter.Env{HeaderWords: opt.Link.HeaderWords()}, opt.Clock, d.Tracer, opt.Name)
	d.startQueues()
	return d
}

// Queues returns the number of receive queues (1 when single-queue).
func (d *Device) Queues() int {
	if len(d.rxqs) > 1 {
		return len(d.rxqs)
	}
	return 1
}

// Clock returns the device's time source.
func (d *Device) Clock() clock.Clock { return d.clk }

// Tracer returns the device's tracer (may be nil).
func (d *Device) Tracer() *trace.Tracer { return d.tr }

// Name returns the trace host label.
func (d *Device) Name() string { return d.name }

// Packet is one received packet as returned by Read: the complete
// frame including the data-link header, plus the optional receive
// timestamp and the cumulative drop count.
type Packet = pfdev.Packet

// Port is one open port on the live device.
type Port struct {
	dev     *Device
	c       *pfdev.PortCore
	readers *sync.Cond // on dev.mu; broadcast on enqueue/close/timeout
}

// Open opens a new port on the device.
func (d *Device) Open() *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	port := &Port{dev: d, readers: sync.NewCond(&d.mu)}
	port.c = d.eng.Open(port)
	return port
}

// Port returns the open port with the given id, or nil.
func (d *Device) Port(id int) *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pc := range d.eng.Ports() {
		if pc.ID() == id {
			return pc.Owner().(*Port)
		}
	}
	return nil
}

// ID returns the port's device-unique id.
func (port *Port) ID() int { return port.c.ID() }

// SetFilter binds a filter to the port, validating or compiling it at
// bind time exactly as the simulated device's ioctl does.
func (port *Port) SetFilter(f filter.Filter) error {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if port.c.Closed() {
		return ErrClosed
	}
	return d.eng.SetFilter(port.c, f)
}

// SetQueueLimit sets the maximum per-port input queue length.
func (port *Port) SetQueueLimit(n int) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.c.SetQueueLimit(n)
}

// SetCopyAll requests that packets accepted by this port's filter also
// be submitted to lower-priority filters (§3.2).
func (port *Port) SetCopyAll(on bool) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.c.SetCopyAll(on)
}

// SetStamp enables receive timestamping.
func (port *Port) SetStamp(on bool) {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	port.c.SetStamp(on)
}

// Input delivers one received frame to the device: governor admission,
// priority-ordered filter match, and enqueue on the accepting ports.
// The frame must not be modified by the caller afterwards (the wire
// receive loop hands over a fresh copy per datagram).  Safe from any
// goroutine.
//
// Single-queue devices demux inline; multi-queue devices steer the
// frame to its flow's queue worker (mq.go) and return once the
// hand-off lands, blocking — never dropping — when the queue is full.
func (d *Device) Input(frame []byte) {
	if len(d.rxqs) > 1 {
		q := d.opt.Link.SteerQueue(frame, len(d.rxqs))
		select {
		case d.rxqs[q] <- frame:
		case <-d.mqQuit:
		}
		return
	}
	d.input(frame, 0)
}

// input is the demux body: one frame, on one receive queue.
func (d *Device) input(frame []byte, queue int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if queue < len(d.qrx) {
		d.qrx[queue]++
	}
	now := d.clk.Now()
	// Live provenance begins at receive: the wire carries frames
	// verbatim, so there is no cross-process span hand-off and the
	// origin mark is the moment the frame left the UDP socket.
	span := d.tr.SpanOrigin(now, d.name)
	d.received++
	if !d.eng.Admit(span, 0, 0) {
		return
	}
	ports, mc := d.eng.Match(frame, d.portScratch[:0], 0)
	after := d.clk.Now()
	d.tr.SpanMark(span, trace.StageFilter, after)
	if len(ports) == 0 {
		d.eng.DropUnmatched(span, mc.QuarSkip)
	}
	for i, pc := range ports {
		s := span
		if i > 0 {
			s = d.tr.SpanFork(span, after, d.name)
		}
		if d.eng.Enqueue(pc, frame, now, s) {
			pc.Owner().(*Port).readers.Broadcast()
		}
	}
	d.portScratch = ports[:0]
}

// TableMaint reports the table-maintenance counters: from-scratch
// builds and incremental patches.
func (d *Device) TableMaint() (builds, patches uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.TableBuilds, d.eng.TablePatches
}

// wait blocks until the port has a queued packet, is closed (a closed
// port's queue is empty), or the timeout elapses (0 blocks forever,
// < 0 never blocks).  Device lock
// held on entry and exit.  Timeouts ride the device clock so the wait
// logic itself stays wall-clock free.
func (port *Port) wait(timeout time.Duration) error {
	d := port.dev
	if port.c.Queued() > 0 {
		return nil
	}
	if port.c.Closed() {
		return ErrClosed
	}
	if timeout < 0 {
		return ErrWouldBlock
	}
	var expired bool
	var tm clock.Timer
	if timeout > 0 {
		tm = d.clk.AfterFunc(timeout, func() {
			d.mu.Lock()
			expired = true
			port.readers.Broadcast()
			d.mu.Unlock()
		})
		defer tm.Stop()
	}
	for port.c.Queued() == 0 && !port.c.Closed() && !expired {
		port.readers.Wait()
	}
	switch {
	case port.c.Queued() > 0:
		return nil
	case port.c.Closed():
		return ErrClosed
	default:
		return ErrTimeout
	}
}

// Read returns the first queued packet, blocking up to timeout
// (0 = forever, negative = non-blocking).
func (port *Port) Read(timeout time.Duration) (Packet, error) {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := port.wait(timeout); err != nil {
		return Packet{}, err
	}
	return d.eng.Read(port.c), nil
}

// ReadBatch returns up to max queued packets (0 = all) in one call,
// blocking like Read when the queue is empty.
func (port *Port) ReadBatch(max int, timeout time.Duration) ([]Packet, error) {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := port.wait(timeout); err != nil {
		return nil, err
	}
	return d.eng.ReadBatch(port.c, max), nil
}

// Stats reports the port's statistics in the same block the simulated
// device fills; ring fields stay zero (live mode has no mapped rings).
func (port *Port) Stats() pfdev.PortStats {
	port.dev.mu.Lock()
	defer port.dev.mu.Unlock()
	return port.c.Stats()
}

// Close releases the port; blocked readers fail with ErrClosed and
// still-queued packets die as DropPortClose.
func (port *Port) Close() {
	d := port.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	port.closeLocked()
}

func (port *Port) closeLocked() {
	port.dev.eng.Close(port.c)
	port.readers.Broadcast()
}

// PortStats returns the statistics blocks of every open port in id
// order.
func (d *Device) PortStats() []pfdev.PortStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.PortStats()
}

// GovStats reports the governor's device-wide statistics.  The live
// device enqueues synchronously, so its backlog is the queued total.
func (d *Device) GovStats() pfdev.GovStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.GovStats(0)
}

// Counts is the device-level receive accounting.
type Counts struct {
	Received    uint64 `json:"received"`     // frames handed to Input
	KernelDrops uint64 `json:"kernel_drops"` // no-match / quota / admission
	QueuedNow   int    `json:"queued_now"`   // packets on port queues

	// Queues and QueueRx report the multi-queue demux spread; both are
	// zero/nil on a single-queue device.
	Queues  int      `json:"queues,omitempty"`
	QueueRx []uint64 `json:"queue_rx,omitempty"`
}

// Counts returns the device-level counters.
func (d *Device) Counts() Counts {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := Counts{Received: d.received, KernelDrops: d.eng.KernelDrops, QueuedNow: d.eng.Queued()}
	if len(d.rxqs) > 1 {
		c.Queues = len(d.rxqs)
		c.QueueRx = append([]uint64(nil), d.qrx...)
	}
	return c
}

// KernelDrops returns the no-match/quota/admission drop count.
func (d *Device) KernelDrops() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.KernelDrops
}

// Close shuts the device: every port closes (waking its readers),
// further Input calls are discarded, and multi-queue workers stop.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	for ports := d.eng.Ports(); len(ports) > 0; ports = d.eng.Ports() {
		ports[0].Owner().(*Port).closeLocked()
	}
	d.mu.Unlock()
	d.stopQueues()
}

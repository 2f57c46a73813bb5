package live

// Multi-queue receive: the live counterpart of pfdev's per-queue demux
// contexts.  The simulated device models each RSS queue as a kernel
// lane — a parallel kernel thread charging virtual CPU; here each
// queue is a real goroutine draining a FIFO channel.  The steering
// contract is shared: ethersim.LinkType.SteerQueue hashes the flow
// tuple (src, dst, type) so one flow always lands on one queue, which
// one worker drains in order — per-flow delivery order is preserved by
// construction, with no cross-queue ordering promised (exactly the
// simulated semantics).
//
// Hand-off is a blocking send on a bounded channel.  A queue that
// falls behind exerts backpressure on the wire receive goroutine
// rather than shedding frames silently; every loss stays a *typed*
// loss (socket-buffer overflow on the wire, or an accounted device
// drop), which is what keeps RunLoad's exact conservation
// reconciliation — sent == wire received == spans created ==
// delivered + typed drops — valid at any queue count.

// mqDepth bounds one receive queue.  Deep enough to ride out
// scheduling hiccups at load-test rates, small enough that
// backpressure engages well before memory matters.
const mqDepth = 4096

// startQueues launches the per-queue workers when Options.Queues > 1.
// Called once from NewDevice; rxqs is immutable afterwards.
func (d *Device) startQueues() {
	n := d.opt.Queues
	if n <= 1 {
		return
	}
	d.rxqs = make([]chan []byte, n)
	d.qrx = make([]uint64, n)
	d.mqQuit = make(chan struct{})
	for q := range d.rxqs {
		d.rxqs[q] = make(chan []byte, mqDepth)
		d.mqWG.Add(1)
		go d.queueWorker(q)
	}
}

// queueWorker drains one receive queue in arrival order until the
// device closes.  Frames still buffered at close time are discarded,
// matching Input's contract on a closed device.
func (d *Device) queueWorker(q int) {
	defer d.mqWG.Done()
	for {
		select {
		case frame := <-d.rxqs[q]:
			d.input(frame, q)
		case <-d.mqQuit:
			return
		}
	}
}

// stopQueues terminates the workers and waits for them; pending sends
// in Input unblock on the same quit channel.  Called from Close with
// d.closed already set (so late worker iterations no-op).
func (d *Device) stopQueues() {
	if d.mqQuit == nil {
		return
	}
	close(d.mqQuit)
	d.mqWG.Wait()
}

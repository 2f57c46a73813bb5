package pfdev

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSetFilterOnCrashClosedPort is the regression test for a stale
// decision-table slot: a port closed by a host crash kept the slot it
// held in the pre-crash table, and a late SetFilter on it patched that
// slot out of the current table — removing the filter of the fresh
// port that had since been given the same slot.  The closed port must
// refuse the bind with ErrClosed, and the fresh port must keep
// receiving.
func TestSetFilterOnCrashClosedPort(t *testing.T) {
	r := newRig(t, Options{Mode: EvalTable})
	var old *Port
	r.s.Spawn(r.hb, "before", func(p *sim.Proc) {
		old = r.db.Open(p)
		if err := old.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Error(err)
		}
	})
	r.s.Run(0)
	r.hb.Crash()
	r.s.Run(0)
	r.hb.Restart()

	var bindErr, readErr error
	r.s.Spawn(r.hb, "after", func(p *sim.Proc) {
		fresh := r.db.Open(p)
		if err := fresh.SetFilter(p, socketFilter(10, 36)); err != nil {
			t.Error(err)
			return
		}
		bindErr = old.SetFilter(p, socketFilter(10, 35))
		fresh.SetTimeout(p, 200*time.Millisecond)
		_, readErr = fresh.Read(p)
	})
	r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
		port := r.da.Open(p)
		p.Sleep(50 * time.Millisecond)
		if err := port.Write(p, pupTo(2, 1, 1, 36)); err != nil {
			t.Error(err)
		}
	})
	r.s.Run(0)
	if !errors.Is(bindErr, ErrClosed) {
		t.Errorf("SetFilter on a crash-closed port = %v, want ErrClosed", bindErr)
	}
	if readErr != nil {
		t.Errorf("fresh port read: %v (the closed port's bind removed its table slot)", readErr)
	}
}

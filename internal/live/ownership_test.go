package live

import (
	"testing"
	"time"

	"repro/internal/ethersim"
	"repro/internal/pup"
	"repro/internal/trace"
)

// TestDisconnectClosesPorts is the regression test for ports outliving
// the control connection that opened them: a client that went away
// left its ports bound, and the orphans kept winning priority ties
// against every later client binding the same filter.  Client A opens
// a port, gets a frame queued on it and disconnects; its port must
// close (the queued frame dying as DropPortClose), and client B, bound
// to the same filter afterwards, must receive the next frame alone.
func TestDisconnectClosesPorts(t *testing.T) {
	link := ethersim.Ether10Mb
	inst, err := Start(ServeConfig{CtlAddr: "127.0.0.1:0", UDPAddr: "127.0.0.1:0",
		Opt: Options{Link: link}})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	f := pup.SocketFilter(link, 10, 0x100)

	a, err := DialControl(inst.CtlAddr())
	if err != nil {
		t.Fatal(err)
	}
	idA, err := a.Open(0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetFilter(idA, f); err != nil {
		t.Fatal(err)
	}
	inst.Dev.Input(pupFrame(t, link, 0x100)) // queued on A's port, never read
	a.Close()

	// The server notices the disconnect asynchronously.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if len(inst.Dev.PortStats()) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	b, err := DialControl(inst.CtlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	idB, err := b.Open(0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetFilter(idB, f); err != nil {
		t.Fatal(err)
	}
	inst.Dev.Input(pupFrame(t, link, 0x100))
	got, err := b.Read(idB, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("client B received %d frames, want 1 (orphaned port %d still bound?)", len(got), idA)
	}
	stats := inst.Dev.PortStats()
	if len(stats) != 1 || stats[0].ID != idB {
		ids := make([]int, len(stats))
		for i, st := range stats {
			ids[i] = st.ID
		}
		t.Errorf("open ports %v, want only client B's port %d", ids, idB)
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == nil || st.Spans.Drops[trace.DropPortClose.String()] != 1 {
		t.Errorf("span drops %v, want A's queued frame dropped as %s", st.Spans, trace.DropPortClose)
	}
}

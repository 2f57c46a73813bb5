package pfdev

import (
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
)

// orSocketFilter builds an expensive non-extractable OR filter (socket
// s1 or s2) padded with redundant conjunctions to raise its bound —
// the shape that lands on the table's linear-fallback path.
func orSocketFilter(prio uint8, s1, s2 uint32) filter.Filter {
	b := filter.NewBuilder()
	b.WordEQ(7, uint16(s1>>16)).WordEQ(8, uint16(s1)).And()
	b.WordEQ(7, uint16(s2>>16)).WordEQ(8, uint16(s2)).And()
	b.Or()
	for i := 0; i < 12; i++ {
		b.WordEQ(8, uint16(s1)).WordEQ(8, uint16(s1)).Op(filter.EQ).And()
	}
	return filter.Filter{Priority: prio, Program: b.MustProgram()}
}

// TestQuarantineTableLinearEquivalence is the satellite-1 regression:
// a high-priority port shadows an expensive fallback filter, so under
// the linear scan the fallback is never reached and never charged.
// The old table path pre-charged every active port's bound on every
// packet regardless of reach, so the shadowed port burned its whole
// budget on frames it never saw, got quarantined, and dropped the few
// socket-36 frames only it matched.  The v2 gov-at-reach scan must
// make table mode exactly equivalent to linear: same quarantines, same
// skips, same deliveries.
func TestQuarantineTableLinearEquivalence(t *testing.T) {
	type res struct {
		quar, skips uint64
		s36         int
	}
	run := func(mode EvalMode) res {
		r := newRig(t, Options{Mode: mode, Gov: tightGov()})
		var hi, lo *Port
		var loGot int
		r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
			hi = r.db.Open(p)
			if err := hi.SetFilter(p, socketFilter(20, 35)); err != nil {
				t.Fatal(err)
			}
			hi.SetQueueLimit(p, 1<<14)
			lo = r.db.Open(p)
			if err := lo.SetFilter(p, orSocketFilter(10, 35, 36)); err != nil {
				t.Fatal(err)
			}
			lo.SetQueueLimit(p, 1<<14)
			lo.SetTimeout(p, time.Millisecond)
		})
		r.s.Run(0)
		r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
			send := r.da.Open(p)
			for i := 0; i < 200; i++ {
				if err := send.Write(p, pupTo(2, 1, 1, 35)); err != nil {
					t.Fatal(err)
				}
				p.Sleep(200 * time.Microsecond)
				if i%10 == 9 {
					if err := send.Write(p, pupTo(2, 1, 1, 36)); err != nil {
						t.Fatal(err)
					}
					p.Sleep(200 * time.Microsecond)
				}
			}
		})
		r.s.Spawn(r.hb, "drain", func(p *sim.Proc) {
			idle := 0
			for idle < 50 {
				if _, err := lo.Read(p); err != nil {
					idle++
				} else {
					idle = 0
					loGot++
				}
			}
		})
		r.s.Run(0)
		return res{quar: lo.quarantines, skips: lo.quarSkips, s36: loGot}
	}
	lin := run(EvalChecked)
	tab := run(EvalTable)
	if lin.s36 == 0 {
		t.Fatal("linear baseline delivered no socket-36 frames; the scenario is broken")
	}
	if tab.s36 != lin.s36 {
		t.Errorf("table delivered %d socket-36 frames, linear %d", tab.s36, lin.s36)
	}
	if tab.quar != lin.quar || tab.skips != lin.skips {
		t.Errorf("table quarantines=%d skips=%d, linear quarantines=%d skips=%d",
			tab.quar, tab.skips, lin.quar, lin.skips)
	}
}

// TestQuarantineExitPatchesTable pins the cool-down forgiveness
// contract in table mode: entering quarantine patches the port out of
// the published table; the packet that finds the port's window expired
// patches it back in and is itself delivered (forgiveness must not
// cost a packet); and both transitions are incremental patches, not
// full rebuilds.
func TestQuarantineExitPatchesTable(t *testing.T) {
	r := newRig(t, Options{Mode: EvalTable, Gov: tightGov()})
	var port *Port
	r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
		port = r.db.Open(p)
		if err := port.SetFilter(p, socketFilter(10, 35)); err != nil {
			t.Fatal(err)
		}
		port.SetQueueLimit(p, 1<<10)
	})
	r.s.Run(0)
	probe := pupTo(2, 1, 1, 35)

	// Prime the table and confirm delivery.
	if got, _ := r.db.tableMatch(probe, nil, 0); !sameIDs(portIDs(got), []int{port.id}) {
		t.Fatalf("primed table delivered to %v, want %v", portIDs(got), []int{port.id})
	}
	builds, patches := r.db.TableBuilds, r.db.TablePatches

	// Starve the bucket: the next reach quarantines the port and must
	// patch it out of the published table in place.
	port.govTokens = 0
	if got, _ := r.db.tableMatch(probe, nil, 0); len(got) != 0 {
		t.Fatalf("starved port still delivered to %v", portIDs(got))
	}
	if port.quarantines != 1 || port.tableActive {
		t.Fatalf("quarantines=%d tableActive=%v, want 1/false", port.quarantines, port.tableActive)
	}
	if port.slot != -1 {
		t.Errorf("quarantined port still owns table slot %d", port.slot)
	}
	if r.db.TablePatches != patches+1 || r.db.TableBuilds != builds {
		t.Errorf("quarantine entry: builds %d->%d patches %d->%d, want an incremental patch",
			builds, r.db.TableBuilds, patches, r.db.TablePatches)
	}

	// While the window holds, matches skip without further patching.
	if got, _ := r.db.tableMatch(probe, nil, 0); len(got) != 0 {
		t.Fatalf("quarantined port delivered to %v", portIDs(got))
	}
	if r.db.TablePatches != patches+1 {
		t.Errorf("in-quarantine match patched the table (%d -> %d)", patches+1, r.db.TablePatches)
	}

	// Sleep past the quarantine window (and long enough to refill the
	// bucket).  The first packet after expiry is the forgiveness
	// transition: it must be delivered and must patch the port back in.
	r.s.Spawn(r.hb, "wait", func(p *sim.Proc) { p.Sleep(30 * time.Millisecond) })
	r.s.Run(0)
	got, _ := r.db.tableMatch(probe, nil, 0)
	if !sameIDs(portIDs(got), []int{port.id}) {
		t.Fatalf("forgiveness packet delivered to %v, want %v", portIDs(got), []int{port.id})
	}
	if !port.tableActive || port.slot < 0 {
		t.Errorf("after exit: tableActive=%v slot=%d, want true/>=0", port.tableActive, port.slot)
	}
	if r.db.TablePatches != patches+2 || r.db.TableBuilds != builds {
		t.Errorf("quarantine exit: builds %d->%d patches %d->%d, want one more incremental patch",
			builds, r.db.TableBuilds, patches+1, r.db.TablePatches)
	}

	// Steady state after re-insertion: the patched table answers alone.
	if got, _ := r.db.tableMatch(probe, nil, 0); !sameIDs(portIDs(got), []int{port.id}) {
		t.Fatalf("post-exit steady match delivered to %v", portIDs(got))
	}
}

// TestReorderDeferredToBurstBoundary is the satellite-2 regression: a
// §3.2 busy-first reorder that comes due in the middle of a coalesced
// burst must not flip the scan order under the burst's feet — every
// frame of one burst observes a single order, and the reorder lands at
// the burst boundary.  The old code reordered mid-burst, so an
// equal-priority tie switched winners partway through a burst.
func TestReorderDeferredToBurstBoundary(t *testing.T) {
	for _, mode := range []EvalMode{EvalChecked, EvalTable} {
		name := "linear"
		if mode == EvalTable {
			name = "table"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, Options{
				Mode:           mode,
				Reorder:        true,
				ReorderEvery:   4,
				CoalesceBudget: 8,
				CoalesceDelay:  2 * time.Millisecond,
			})
			var pA, pB *Port
			r.s.Spawn(r.hb, "setup", func(p *sim.Proc) {
				pA = r.db.Open(p)
				pA.SetFilter(p, socketFilter(10, 35))
				pA.SetQueueLimit(p, 1<<10)
				pB = r.db.Open(p)
				pB.SetFilter(p, socketFilter(10, 35))
				pB.SetQueueLimit(p, 1<<10)
			})
			r.s.Run(0)

			// Make pB the busier port so the reorder due at pktSeen=4 —
			// mid-burst — would promote it over pA.
			pB.matches = 100
			r.s.Spawn(r.ha, "send", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				for i := 0; i < 8; i++ {
					// Raw back-to-back transmits so all 8 frames
					// coalesce into one burst.
					r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
				}
			})
			r.s.Run(0)
			// NAPI shape: the first frame flushes alone (the
			// "interrupt"), frames 2-8 coalesce into one 7-frame burst
			// that spans both reorder triggers (pktSeen 4 and 8).
			if r.hb.Counters.Bursts != 2 || r.hb.Counters.CoalescedFrames != 8 {
				t.Fatalf("burst shape: bursts=%d coalesced=%d, want 2/8",
					r.hb.Counters.Bursts, r.hb.Counters.CoalescedFrames)
			}
			aGot, bGot := pA.matches, pB.matches-100
			if aGot+bGot != 8 {
				t.Fatalf("burst delivered %d+%d frames, want 8", aGot, bGot)
			}
			if aGot != 8 {
				t.Errorf("scan order flipped mid-burst: %d frames to pA, %d to pB; all 8 belong to the pre-burst winner", aGot, bGot)
			}

			// The reorder was deferred, not dropped: the first frame
			// after the burst boundary goes to the busier port.
			r.s.Spawn(r.ha, "send2", func(p *sim.Proc) {
				p.Sleep(10 * time.Millisecond)
				r.da.NIC().Transmit(pupTo(2, 1, 1, 35))
			})
			r.s.Run(0)
			if pB.matches-100 != bGot+1 {
				t.Errorf("post-burst frame went to %d/%d; the deferred reorder never applied",
					pA.matches, pB.matches-100)
			}
		})
	}
}

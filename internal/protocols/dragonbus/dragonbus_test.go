package dragonbus

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/trace"
)

func take(t *testing.T, r *protocol.Runner, want string) {
	t.Helper()
	for _, tr := range r.Enabled() {
		if tr.Action.String() == want {
			r.Take(tr)
			return
		}
	}
	t.Fatalf("action %q not enabled; run: %s", want, r.Run())
}

func observeAndCheck(t *testing.T, run *protocol.Run) error {
	t.Helper()
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		return err
	}
	return checker.Check(stream, o.K())
}

func TestStateStrings(t *testing.T) {
	want := map[LineState]string{
		Invalid: "I", SharedClean: "Sc", SharedModified: "Sm",
		Exclusive: "E", Modified: "M",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%v = %q, want %q", st, st.String(), name)
		}
	}
}

func TestValidate(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	if err := protocol.Validate(m, m.Initial()); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateBroadcastReachesSharers(t *testing.T) {
	// P1 and P2 share the line; P1's store updates P2's copy IN PLACE — no
	// invalidation, and P2's next load returns the new value without any
	// bus refill.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "BusRd(1,1)")
	take(t, r, "BusRd(2,1)")
	take(t, r, "LD(P2,B1,⊥)")
	take(t, r, "ST(P1,B1,2)") // broadcast update
	take(t, r, "LD(P2,B1,2)") // P2 sees the new value immediately
	take(t, r, "LD(P1,B1,2)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("Dragon run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("update-broadcast run rejected: %v", err)
	}
}

func TestNoStaleReadPossibleAfterUpdate(t *testing.T) {
	// Update protocols have no invalidation window: after a store, no
	// sharer can load the old value at all.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "BusRd(1,1)")
	take(t, r, "BusRd(2,1)")
	take(t, r, "ST(P1,B1,1)")
	for _, tr := range r.Enabled() {
		if tr.Action.String() == "LD(P2,B1,⊥)" {
			t.Fatal("sharer can still read the pre-update value")
		}
	}
}

func TestOwnershipTransferBetweenWriters(t *testing.T) {
	// P1 writes (Sm owner), then P2 writes the same shared line: ownership
	// transfers, both copies track the latest value, memory stays stale
	// until the owner evicts.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "BusRd(1,1)")
	take(t, r, "BusRd(2,1)")
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "ST(P2,B1,2)")
	take(t, r, "LD(P1,B1,2)")
	take(t, r, "LD(P2,B1,2)")
	take(t, r, "Evict(2,1)") // owner writes back
	take(t, r, "BusRd(2,1)") // refill from now-current memory
	take(t, r, "LD(P2,B1,2)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("ownership-transfer run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("ownership-transfer run rejected: %v", err)
	}
}

func TestRandomRunsObserveAndCheck(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 25; seed++ {
		run := protocol.RandomRun(m, 40, seed)
		if err := observeAndCheck(t, run); err != nil {
			t.Fatalf("seed %d: rejected: %v\nrun: %s", seed, err, run)
		}
	}
}

func TestRandomRunTracesAreSC(t *testing.T) {
	m := New(trace.Params{Procs: 3, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 8; seed++ {
		run := protocol.RandomRun(m, 30, seed)
		if len(run.Trace) > 14 {
			run.Trace = run.Trace[:14]
		}
		if !trace.HasSerialReordering(run.Trace) {
			t.Fatalf("seed %d: Dragon trace not SC: %s", seed, run.Trace)
		}
	}
}

func TestUpdateStoreTrackingLabels(t *testing.T) {
	// The broadcast store writes several locations in one transition: the
	// ST-index of every sharer's line must point at the new store.
	m := New(trace.Params{Procs: 3, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	st := protocol.NewSTIndexTracker(m.Locations())
	apply := func(want string) {
		take(t, r, want)
		last := r.Run().Steps[len(r.Run().Steps)-1]
		st.Apply(last.Transition, last.TraceIndex)
	}
	apply("BusRd(1,1)")
	apply("BusRd(2,1)")
	apply("BusRd(3,1)")
	apply("ST(P1,B1,2)") // trace index 1, broadcast to P2 and P3
	for p := trace.ProcID(1); p <= 3; p++ {
		if got := st.Index(m.CacheLoc(p, 1)); got != 1 {
			t.Errorf("P%d line ST-index = %d, want 1", p, got)
		}
	}
	if got := st.Index(m.MemLoc(1)); got != 0 {
		t.Errorf("memory ST-index = %d, want 0 (stale)", got)
	}
}

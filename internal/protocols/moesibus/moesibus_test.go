package moesibus

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
	want := map[LineState]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"}
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

func TestOwnedStateDirtySharing(t *testing.T) {
	// P1 writes, P2 reads (P1 → Owned, cache-to-cache supply, memory
	// stale), P3 reads from the owner again, then the owner evicts and
	// memory finally catches up.
	m := New(trace.Params{Procs: 3, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "BusRdX(1,1)")
	take(t, r, "ST(P1,B1,2)")
	take(t, r, "BusRd(2,1)") // P1: M → O, supplies P2
	take(t, r, "LD(P2,B1,2)")
	take(t, r, "BusRd(3,1)") // owner still supplies
	take(t, r, "LD(P3,B1,2)")
	take(t, r, "LD(P1,B1,2)") // owner reads its own dirty line
	take(t, r, "Evict(1,1)")  // write back
	take(t, r, "BusRd(1,1)")  // refill from (now current) memory
	take(t, r, "LD(P1,B1,2)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("MOESI run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("dirty-sharing run rejected: %v", err)
	}
}

func TestOwnedUpgradeUsesDirtyData(t *testing.T) {
	// The owner upgrades its own Owned line back to Modified without
	// touching stale memory.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "BusRdX(1,1)")
	take(t, r, "ST(P1,B1,2)")
	take(t, r, "BusRd(2,1)")  // P1 → Owned
	take(t, r, "BusRdX(1,1)") // P1 upgrades O → M, invalidates P2
	take(t, r, "LD(P1,B1,2)") // still the dirty value, not stale memory ⊥
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("upgrade run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("upgrade run rejected: %v", err)
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
			t.Fatalf("seed %d: MOESI trace not SC: %s", seed, run.Trace)
		}
	}
}

func TestMemoryStaysStaleUnderOwnership(t *testing.T) {
	// Structural check of the interesting invariant: after dirty sharing,
	// the memory location still holds the ORIGINAL store's value according
	// to the tracking labels (ST-index), while caches hold the new one.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	st := protocol.NewSTIndexTracker(m.Locations())
	apply := func(want string) {
		take(t, r, want)
		last := r.Run().Steps[len(r.Run().Steps)-1]
		st.Apply(last.Transition, last.TraceIndex)
	}
	apply("BusRdX(1,1)")
	apply("ST(P1,B1,1)") // trace index 1
	apply("Evict(1,1)")  // write back: memory now holds store 1
	apply("BusRdX(1,1)")
	apply("ST(P1,B1,2)") // trace index 2, dirty
	apply("BusRd(2,1)")  // dirty sharing: memory NOT updated
	if got := st.Index(m.MemLoc(1)); got != 1 {
		t.Errorf("memory ST-index = %d, want 1 (stale under ownership)", got)
	}
	if got := st.Index(m.CacheLoc(2, 1)); got != 2 {
		t.Errorf("P2 cache ST-index = %d, want 2", got)
	}
}

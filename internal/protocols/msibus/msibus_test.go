package msibus

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/trace"
)

func TestStateAndBugStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("line state names wrong")
	}
	if NoBug.String() != "" || BugLostWriteback.String() != "lost-writeback" {
		t.Error("bug names wrong")
	}
	if New(trace.Params{Procs: 2, Blocks: 1, Values: 1}).Name() != "msi-bus" {
		t.Error("protocol name wrong")
	}
	if NewBuggy(trace.Params{Procs: 2, Blocks: 1, Values: 1}, BugNoInvalidate).Name() != "msi-bus-no-invalidate" {
		t.Error("buggy protocol name wrong")
	}
}

func TestLocationLayout(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 3, Values: 2})
	if m.Locations() != 3*(1+2) {
		t.Errorf("Locations = %d", m.Locations())
	}
	if m.MemLoc(2) != 2 {
		t.Errorf("MemLoc(2) = %d", m.MemLoc(2))
	}
	if m.CacheLoc(1, 1) != 4 || m.CacheLoc(2, 3) != 9 {
		t.Errorf("CacheLoc wrong: %d %d", m.CacheLoc(1, 1), m.CacheLoc(2, 3))
	}
}

func TestValidateTransitions(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	if err := protocol.Validate(m, m.Initial()); err != nil {
		t.Fatal(err)
	}
	// Also from a state with cached data.
	r := protocol.NewRunner(m)
	for i := 0; i < 10; i++ {
		en := r.Enabled()
		if len(en) == 0 {
			break
		}
		r.Take(en[i%len(en)])
		if err := protocol.Validate(m, r.State()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInitialHasNoHits(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	for _, tr := range m.Transitions(m.Initial()) {
		if tr.Action.IsMem() {
			t.Errorf("memory op %s enabled with all lines Invalid", tr.Action)
		}
	}
}

func TestRandomRunsObserveAndCheck(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 25; seed++ {
		run := protocol.RandomRun(m, 40, seed)
		stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
		if err != nil {
			t.Fatalf("seed %d: observer error: %v\nrun: %s", seed, err, run)
		}
		if err := checker.Check(stream, o.K()); err != nil {
			t.Fatalf("seed %d: checker rejected MSI run: %v\nrun: %s", seed, err, run)
		}
	}
}

func TestRandomRunTracesAreSC(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 10; seed++ {
		run := protocol.RandomRun(m, 30, seed)
		if len(run.Trace) > 14 {
			run.Trace = run.Trace[:14] // keep the exact search tractable
		}
		if !trace.HasSerialReordering(run.Trace) {
			t.Fatalf("seed %d: MSI trace not SC: %s", seed, run.Trace)
		}
	}
}

// driveScript executes a hand-picked sequence of actions by matching
// action strings, failing the test if an action is not enabled.
func driveScript(t *testing.T, m *Protocol, actions []string) *protocol.Run {
	t.Helper()
	r := protocol.NewRunner(m)
	for _, want := range actions {
		found := false
		for _, tr := range r.Enabled() {
			if tr.Action.String() == want {
				r.Take(tr)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("action %q not enabled; run so far: %s", want, r.Run())
		}
	}
	return r.Run()
}

func TestLostWritebackBugProducesNonSCTrace(t *testing.T) {
	m := NewBuggy(trace.Params{Procs: 2, Blocks: 1, Values: 2}, BugLostWriteback)
	// P1 stores 1 (writes back properly via BusRd by P2 reading it), then
	// P1 stores 2 and evicts, losing the store; P1 then reads stale 1
	// after its own store of 2: not SC.
	run := driveScript(t, m, []string{
		"BusRdX(1,1)",
		"ST(P1,B1,1)",
		"BusRd(2,1)", // P2 reads: P1 writes back 1, both Shared
		"LD(P2,B1,1)",
		"BusRdX(1,1)", // P1 regains M (invalidates P2)
		"ST(P1,B1,2)",
		"Evict(1,1)", // lost writeback: memory still 1
		"BusRd(1,1)",
		"LD(P1,B1,1)", // P1 sees 1 after storing 2: violation
	})
	if trace.HasSerialReordering(run.Trace) {
		t.Fatalf("expected non-SC trace, got SC: %s", run.Trace)
	}
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		t.Fatalf("observer error: %v", err)
	}
	if err := checker.Check(stream, o.K()); err == nil {
		t.Error("checker accepted a non-SC run")
	}
}

func TestNoInvalidateBugProducesNonSCTrace(t *testing.T) {
	m := NewBuggy(trace.Params{Procs: 2, Blocks: 2, Values: 1}, BugNoInvalidate)
	// Message-passing violation: P2 keeps a stale Shared copy of block 1
	// while P1 stores to block 1 then block 2; P2 reads the new block 2
	// value, then the stale block 1 value.
	run := driveScript(t, m, []string{
		"BusRd(2,1)",  // P2 caches B1=⊥ (stale-to-be)
		"BusRdX(1,1)", // bug: P2's Shared copy survives
		"ST(P1,B1,1)",
		"BusRdX(1,2)",
		"ST(P1,B2,1)",
		"Evict(1,2)", // write B2 back to memory
		"BusRd(2,2)",
		"LD(P2,B2,1)", // P2 sees the flag
		"LD(P2,B1,⊥)", // then reads stale ⊥: violation
	})
	if trace.HasSerialReordering(run.Trace) {
		t.Fatalf("expected non-SC trace, got SC: %s", run.Trace)
	}
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		t.Fatalf("observer error: %v", err)
	}
	if err := checker.Check(stream, o.K()); err == nil {
		t.Error("checker accepted a non-SC run")
	}
}

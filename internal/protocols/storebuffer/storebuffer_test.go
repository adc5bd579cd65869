package storebuffer

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/mc"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/trace"
)

func TestLocationsAndValidate(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2}, 2)
	if m.Locations() != 2+2*2 {
		t.Errorf("Locations = %d", m.Locations())
	}
	if err := protocol.Validate(m, m.Initial()); err != nil {
		t.Fatal(err)
	}
	if New(trace.Params{Procs: 1, Blocks: 1, Values: 1}, 0).Cap != 1 {
		t.Error("cap floor not applied")
	}
}

// sbLitmus drives the classic store-buffering litmus: P1 stores x, P2
// stores y, both loads see the other block's initial ⊥ — impossible under
// SC, allowed by TSO.
func sbLitmus(t *testing.T, m *Protocol) *protocol.Run {
	t.Helper()
	r := protocol.NewRunner(m)
	take := func(want string) {
		t.Helper()
		for _, tr := range r.Enabled() {
			if tr.Action.String() == want {
				r.Take(tr)
				return
			}
		}
		t.Fatalf("action %q not enabled", want)
	}
	take("ST(P1,B1,1)")
	take("ST(P2,B2,1)")
	take("LD(P1,B2,⊥)") // buffered stores not yet visible
	take("LD(P2,B1,⊥)")
	take("Drain(1)")
	take("Drain(2)")
	return r.Run()
}

func TestStoreBufferLitmusNotSC(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 1}, 1)
	run := sbLitmus(t, m)
	if trace.HasSerialReordering(run.Trace) {
		t.Fatalf("store-buffering outcome is SC?! %s", run.Trace)
	}
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		t.Fatalf("observer error: %v", err)
	}
	if err := checker.Check(stream, o.K()); err == nil {
		t.Error("checker accepted the store-buffering litmus run")
	}
}

func TestForwardingLoadsOwnBufferedStore(t *testing.T) {
	m := New(trace.Params{Procs: 1, Blocks: 1, Values: 2}, 2)
	r := protocol.NewRunner(m)
	take := func(want string) {
		t.Helper()
		for _, tr := range r.Enabled() {
			if tr.Action.String() == want {
				r.Take(tr)
				return
			}
		}
		t.Fatalf("action %q not enabled", want)
	}
	take("ST(P1,B1,1)")
	take("ST(P1,B1,2)")
	take("LD(P1,B1,2)") // forwards from the youngest entry
	take("Drain(1)")
	take("LD(P1,B1,2)") // still 2 via forwarding
	take("Drain(1)")
	take("LD(P1,B1,2)") // now from memory
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("single-processor TSO trace must be SC: %s", run.Trace)
	}
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.Check(stream, o.K()); err != nil {
		t.Errorf("forwarding run rejected: %v", err)
	}
}

func TestModelCheckerFindsViolation(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 1}, 1)
	res := mc.Verify(m, mc.Options{MaxDepth: 8})
	if res.Verdict != mc.Violated {
		t.Fatalf("store buffer not caught: %s", res)
	}
	run, err := mc.Replay(m, res.Counterexample)
	if err != nil {
		t.Fatalf("counterexample replay failed: %v", err)
	}
	t.Logf("counterexample (%d steps): %s", len(run.Steps), run)
	// The counterexample's trace must genuinely violate SC whenever the
	// rejection came from the checker (rather than a class-Γ failure).
	if len(run.Trace) <= 12 && trace.HasSerialReordering(run.Trace) {
		t.Logf("note: trace itself SC; rejection was %v", res.Err)
	}
}

func TestBufferCapacityRespected(t *testing.T) {
	m := New(trace.Params{Procs: 1, Blocks: 1, Values: 1}, 1)
	r := protocol.NewRunner(m)
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsStore() {
			r.Take(tr)
			break
		}
	}
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsStore() {
			t.Fatal("store enabled with full buffer")
		}
	}
}

func TestDrainShiftsSlots(t *testing.T) {
	m := New(trace.Params{Procs: 1, Blocks: 2, Values: 2}, 2)
	run := protocol.RandomRun(m, 30, 4)
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		t.Fatalf("observer error on %s: %v", run, err)
	}
	// Single-processor TSO is SC; the checker must accept.
	if err := checker.Check(stream, o.K()); err != nil {
		t.Errorf("single-proc run rejected: %v\nrun: %s", err, run)
	}
}

func TestFencedVariantLoadGating(t *testing.T) {
	m := NewFenced(trace.Params{Procs: 1, Blocks: 1, Values: 1}, 2)
	r := protocol.NewRunner(m)
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsStore() {
			r.Take(tr)
			break
		}
	}
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsLoad() {
			t.Fatal("load enabled with non-empty buffer in fenced mode")
		}
	}
}

package writethrough

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/mc"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/trace"
)

func observeAndCheck(t *testing.T, run *protocol.Run) error {
	t.Helper()
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		return err
	}
	c := checker.New(o.K())
	for _, sym := range stream {
		if err := c.Step(sym); err != nil {
			return err
		}
	}
	return c.Finish()
}

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

func TestNamesAndValidate(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	if m.Name() != "write-through" {
		t.Errorf("name = %q", m.Name())
	}
	if NewBuggy(m.P).Name() != "write-through-no-invalidate" {
		t.Error("buggy name wrong")
	}
	if err := protocol.Validate(m, m.Initial()); err != nil {
		t.Fatal(err)
	}
	if m.Locations() != 2*(1+2) {
		t.Errorf("Locations = %d", m.Locations())
	}
}

func TestStoreInvalidatesOtherCopies(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "Fill(2,1)")
	take(t, r, "LD(P2,B1,⊥)")
	take(t, r, "ST(P1,B1,1)") // invalidates P2's copy
	// P2's only load path is now a refill: no stale ⊥-hit may be enabled.
	for _, tr := range r.Enabled() {
		if tr.Action.String() == "LD(P2,B1,⊥)" {
			t.Fatal("stale copy survived a write-through store")
		}
	}
	take(t, r, "Fill(2,1)")
	take(t, r, "LD(P2,B1,1)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("trace not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("rejected: %v", err)
	}
}

func TestWriteThroughStoreWithValidLine(t *testing.T) {
	// Store into a valid line: the value lands in the cache and propagates
	// to memory in the same transition (post-op copy semantics); a later
	// fill by another processor must inherit from it.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "Fill(1,1)")
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "LD(P1,B1,1)")
	take(t, r, "Fill(2,1)")
	take(t, r, "LD(P2,B1,1)")
	run := r.Run()
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("rejected: %v", err)
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
			t.Fatalf("seed %d: trace not SC: %s", seed, run.Trace)
		}
	}
}

func TestModelCheckerCatchesNoInvalidateBug(t *testing.T) {
	m := NewBuggy(trace.Params{Procs: 2, Blocks: 2, Values: 1})
	res := mc.Verify(m, mc.Options{MaxDepth: 10})
	if res.Verdict != mc.Violated {
		t.Fatalf("bug not caught: %s", res)
	}
	// BFS finds the shallowest rejection, which may be an annotation
	// artifact (an SC trace whose real-time witness is cyclic) — either
	// way the protocol is correctly NOT certified. Confirm a genuine
	// violation also exists by hand-driving the message-passing schedule.
	run, err := mc.Replay(m, res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shallowest rejection: %s (%v)", run, res.Err)

	r := protocol.NewRunner(m)
	take(t, r, "Fill(2,1)")   // P2 caches B1=⊥ (will go stale)
	take(t, r, "ST(P1,B1,1)") // bug: P2's copy survives
	take(t, r, "ST(P1,B2,1)") // flag
	take(t, r, "Fill(2,2)")
	take(t, r, "LD(P2,B2,1)") // P2 sees the flag...
	take(t, r, "LD(P2,B1,⊥)") // ...then reads stale data: not SC
	if trace.HasSerialReordering(r.Run().Trace) {
		t.Fatalf("expected non-SC trace: %s", r.Run().Trace)
	}
	if err := observeAndCheck(t, r.Run()); err == nil {
		t.Error("checker accepted the genuine violation run")
	}
}

func TestModelCheckerVerifiesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking in short mode")
	}
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	res := mc.Verify(m, mc.Options{MaxDepth: 12})
	if res.Verdict == mc.Violated {
		t.Fatalf("write-through flagged: %s", res)
	}
	t.Logf("%s", res)
}

package mesibus

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
	t.Fatalf("action %q not enabled", want)
}

func TestLineStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}

func TestExclusiveOnSoleReader(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	r := protocol.NewRunner(m)
	take(t, r, "BusRd(1,1)")
	// P1 holds the line Exclusive: a silent store must now be enabled
	// without any further bus transaction.
	found := false
	for _, tr := range r.Enabled() {
		if tr.Action.String() == "ST(P1,B1,1)" {
			found = true
		}
	}
	if !found {
		t.Fatal("silent E-state store not enabled after sole BusRd")
	}
	// A second reader downgrades both to Shared: afterwards P2 must not be
	// able to store without a bus transaction.
	take(t, r, "BusRd(2,1)")
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsStore() {
			t.Fatalf("store %s enabled from Shared", tr.Action)
		}
	}
}

func TestSilentUpgradeRunIsSC(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "BusRd(1,1)")
	take(t, r, "ST(P1,B1,1)") // silent E→M
	take(t, r, "LD(P1,B1,1)")
	take(t, r, "BusRd(2,1)") // P1 writes back, both Shared
	take(t, r, "LD(P2,B1,1)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("MESI run not SC: %s", run.Trace)
	}
	stream, o, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.Check(stream, o.K()); err != nil {
		t.Errorf("silent-upgrade run rejected: %v", err)
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
			t.Fatalf("seed %d: checker rejected MESI run: %v\nrun: %s", seed, err, run)
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
			t.Fatalf("seed %d: MESI trace not SC: %s", seed, run.Trace)
		}
	}
}

func TestValidate(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	if err := protocol.Validate(m, m.Initial()); err != nil {
		t.Fatal(err)
	}
}

package mc

import (
	"testing"

	"scverify/internal/protocol"
	"scverify/internal/protocols/serial"
	"scverify/internal/trace"
)

func TestVerifySerialMemorySmall(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	res := Verify(p, Options{Workers: 2})
	if res.Verdict != Verified {
		t.Fatalf("serial memory not verified: %s", res)
	}
	if res.States < 2 {
		t.Errorf("suspiciously few states: %d", res.States)
	}
	t.Logf("%s", res)
}

func TestVerifySerialMemoryMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium state space")
	}
	p := serial.New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	res := Verify(p, Options{})
	if res.Verdict != Verified {
		t.Fatalf("serial memory (2,1,2) not verified: %s", res)
	}
	t.Logf("%s", res)
}

// brokenSerial is a serial memory whose loads may return a stale value for
// block 1 — value slips that make it non-SC — while carrying tracking
// labels that claim the load read the current memory. The observer must
// flag the inconsistency, which the model checker reports as a violation.
type brokenSerial struct{ *serial.Memory }

func (b brokenSerial) Name() string { return "serial-broken" }

func (b brokenSerial) Transitions(s protocol.State) []protocol.Transition {
	out := b.Memory.Transitions(s)
	// Add a bogus load that returns value 1 for block 1 regardless of
	// memory contents, labeled as if it read location 1.
	out = append(out, protocol.Transition{
		Action: protocol.MemOp(trace.LD(1, 1, 1)),
		Next:   s,
		Loc:    1,
	})
	return out
}

func TestVerifyCatchesBrokenProtocol(t *testing.T) {
	p := brokenSerial{serial.New(trace.Params{Procs: 2, Blocks: 1, Values: 2})}
	res := Verify(p, Options{})
	if res.Verdict != Violated {
		t.Fatalf("broken protocol not caught: %s", res)
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("no counterexample path")
	}
	run, err := Replay(p, res.Counterexample)
	if err != nil {
		t.Fatalf("counterexample does not replay: %v", err)
	}
	t.Logf("counterexample: %s (%v)", run, res.Err)
}

func TestVerifyDepthBound(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	res := Verify(p, Options{MaxDepth: 2})
	if res.Verdict != Incomplete {
		t.Fatalf("depth-bounded run should be incomplete: %s", res)
	}
	if res.Depth != 2 {
		t.Errorf("depth = %d, want 2", res.Depth)
	}
}

func TestVerifyStateCap(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	res := Verify(p, Options{MaxStates: 10})
	if res.Verdict != Incomplete {
		t.Fatalf("capped run should be incomplete: %s", res)
	}
}

func TestVerifyDeterministicStateCount(t *testing.T) {
	params := trace.Params{Procs: 2, Blocks: 1, Values: 2}
	if testing.Short() {
		// make race-scratch repeats this test under the race detector;
		// the 9,405-state space keeps that loop affordable.
		params.Values = 1
	}
	p := serial.New(params)
	a := Verify(p, Options{Workers: 1})
	b := Verify(p, Options{Workers: 4})
	if a.Verdict != Verified || b.Verdict != Verified {
		t.Fatalf("not verified: %s / %s", a, b)
	}
	if a.States != b.States {
		t.Errorf("state counts differ across worker counts: %d vs %d", a.States, b.States)
	}
}

func TestVerdictString(t *testing.T) {
	if Verified.String() != "verified" || Violated.String() != "violated" || Incomplete.String() != "incomplete" {
		t.Error("verdict names wrong")
	}
}

package directory

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
	c := checker.New(o.K())
	for _, sym := range stream {
		if err := c.Step(sym); err != nil {
			return err
		}
	}
	return c.Finish()
}

func TestStateStrings(t *testing.T) {
	if Invalid.String() != "I" || ModifiedLn.String() != "M" || WaitS.String() != "IS_D" {
		t.Error("line state names wrong")
	}
	if Uncached.String() != "U" || BusyInv.String() != "busyInv" {
		t.Error("dir state names wrong")
	}
}

func TestValidate(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	if err := protocol.Validate(m, m.Initial()); err != nil {
		t.Fatal(err)
	}
}

func TestFullReadWriteTransaction(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "GetX(1,1)")
	take(t, r, "HomeGetX(1,1)")
	take(t, r, "RecvDataEx(1,1)")
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "LD(P1,B1,1)")
	// P2 reads: home fetches from P1, which downgrades to Shared.
	take(t, r, "GetS(2,1)")
	take(t, r, "HomeGetS(2,1)")
	take(t, r, "RecvFetch(1,1)")
	take(t, r, "HomeFetchWB(1,1)")
	take(t, r, "RecvData(2,1)")
	take(t, r, "LD(P2,B1,1)")
	take(t, r, "LD(P1,B1,1)") // previous owner kept a Shared copy
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("directory run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("run rejected: %v", err)
	}
}

func TestInvalidationRoundTrip(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	// Both processors get Shared copies of ⊥.
	take(t, r, "GetS(1,1)")
	take(t, r, "HomeGetS(1,1)")
	take(t, r, "RecvData(1,1)")
	take(t, r, "GetS(2,1)")
	take(t, r, "HomeGetS(2,1)")
	take(t, r, "RecvData(2,1)")
	take(t, r, "LD(P1,B1,⊥)")
	take(t, r, "LD(P2,B1,⊥)")
	// P1 upgrades: P2 must be invalidated and ack before DataEx.
	take(t, r, "GetX(1,1)")
	take(t, r, "HomeGetX(1,1)")
	// P2 may still read its stale copy while the Inv is in flight.
	take(t, r, "LD(P2,B1,⊥)")
	take(t, r, "RecvInv(2,1)")
	take(t, r, "HomeInvAck(1)")
	take(t, r, "RecvDataEx(1,1)")
	take(t, r, "ST(P1,B1,2)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("invalidation run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("run rejected: %v", err)
	}
}

func TestPutMRace(t *testing.T) {
	// Owner evicts (PutM) concurrently with a GetS: the home's busy-fetch
	// state is satisfied by the PutM write-back, and the stale Fetch is
	// dropped at the evicted owner.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2})
	r := protocol.NewRunner(m)
	take(t, r, "GetX(1,1)")
	take(t, r, "HomeGetX(1,1)")
	take(t, r, "RecvDataEx(1,1)")
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "GetS(2,1)")
	take(t, r, "PutM(1,1)")        // eviction races with the request
	take(t, r, "HomeGetS(2,1)")    // home still thinks P1 owns: sends Fetch
	take(t, r, "RecvFetch(1,1)")   // stale fetch dropped (line Invalid)
	take(t, r, "HomeFetchWB(1,1)") // PutM data satisfies the transaction
	take(t, r, "RecvData(2,1)")
	take(t, r, "LD(P2,B1,1)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("PutM race run not SC: %s", run.Trace)
	}
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("run rejected: %v", err)
	}
}

func TestInvDoesNotOvertakeData(t *testing.T) {
	// P1 silently evicts its Shared copy and re-requests it; home still
	// lists P1 as a sharer, sends Data, then invalidates P1 for P2's GetX.
	// The Inv must wait behind the Data: acking it first would let P1 fill
	// the stale value after P2's stores.
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 1})
	r := protocol.NewRunner(m)
	take(t, r, "GetS(1,1)")
	take(t, r, "HomeGetS(1,1)")
	take(t, r, "RecvData(1,1)")
	take(t, r, "EvictS(1,1)")
	take(t, r, "GetS(1,1)")
	take(t, r, "HomeGetS(1,1)") // Data(⊥) in flight to P1
	take(t, r, "GetX(2,1)")
	take(t, r, "HomeGetX(2,1)") // Inv in flight to P1
	for _, tr := range r.Enabled() {
		if tr.Action.String() == "RecvInv(1,1)" {
			t.Fatalf("RecvInv(1,1) enabled while P1's Data is in flight; run: %s", r.Run())
		}
	}
	take(t, r, "RecvData(1,1)")
	take(t, r, "RecvInv(1,1)")
	take(t, r, "HomeInvAck(1)")
	take(t, r, "RecvDataEx(2,1)")
	take(t, r, "ST(P2,B1,1)")
	run := r.Run()
	if err := observeAndCheck(t, run); err != nil {
		t.Errorf("run rejected: %v", err)
	}
}

func TestLongRandomRunsAccepted(t *testing.T) {
	// Run seeds whose long p4 b2 v2 streams the checker rejected while an
	// Inv could overtake a Data to the same processor.
	m := New(trace.Params{Procs: 4, Blocks: 2, Values: 2})
	for _, seed := range []int64{35004, 97005, 119000} {
		run := protocol.RandomRun(m, 10000, seed)
		if err := observeAndCheck(t, run); err != nil {
			t.Errorf("seed %d: rejected: %v", seed, err)
		}
	}
}

func TestRandomRunsObserveAndCheck(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 30; seed++ {
		run := protocol.RandomRun(m, 60, seed)
		if err := observeAndCheck(t, run); err != nil {
			t.Fatalf("seed %d: rejected: %v\nrun: %s", seed, err, run)
		}
	}
}

func TestRandomRunTracesAreSC(t *testing.T) {
	m := New(trace.Params{Procs: 3, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 8; seed++ {
		run := protocol.RandomRun(m, 50, seed)
		if len(run.Trace) > 14 {
			run.Trace = run.Trace[:14]
		}
		if !trace.HasSerialReordering(run.Trace) {
			t.Fatalf("seed %d: directory trace not SC: %s", seed, run.Trace)
		}
	}
}

func TestNoDeadlockOnRandomWalks(t *testing.T) {
	// Every reachable state within a random walk must either enable some
	// transition or be a legitimate end state; the directory should never
	// wedge (blocking home always eventually unblocked).
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	for seed := int64(0); seed < 20; seed++ {
		r := protocol.NewRunner(m)
		for i := 0; i < 80; i++ {
			en := r.Enabled()
			if len(en) == 0 {
				t.Fatalf("seed %d: deadlock after %s", seed, r.Run())
			}
			r.Take(en[int(seed+int64(i*7))%len(en)])
		}
	}
}

package observer

import (
	"strings"
	"testing"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/protocol"
	"scverify/internal/protocols/serial"
	"scverify/internal/trace"
)

// figure4Script reproduces the run of the paper's Figure 4.
func figure4Script() *protocol.Scripted {
	return &protocol.Scripted{
		ProtoName: "figure4",
		P:         2, B: 3, V: 3, L: 4,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.MemOp(trace.ST(2, 2, 2)), Loc: 4},
			{Action: protocol.Internal("Get-Shared", 2, 1), Copies: []protocol.Copy{{Dst: 3, Src: 1}}},
			{Action: protocol.MemOp(trace.ST(1, 3, 3)), Loc: 1},
		},
	}
}

func runScript(t *testing.T, p protocol.Protocol) *protocol.Run {
	t.Helper()
	r := protocol.NewRunner(p)
	for {
		en := r.Enabled()
		if len(en) == 0 {
			return r.Run()
		}
		r.Take(en[0])
	}
}

func TestInheritanceObserverFigure4(t *testing.T) {
	// Lemma 4.1 on Figure 4's run: the inheritance generator should emit
	// node 1 (ST B1 in location 1), node 4 (ST B2 in location 4),
	// add-ID(1,3) for Get-Shared, then node 1 again (ST B3 overwrites).
	run := runScript(t, figure4Script())
	s, err := ObserveInheritance(run)
	if err != nil {
		t.Fatal(err)
	}
	want := descriptor.Stream{
		descriptor.Node{ID: 1, Op: opp(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 4, Op: opp(trace.ST(2, 2, 2))},
		descriptor.AddID{Existing: 1, New: 3},
		descriptor.Node{ID: 1, Op: opp(trace.ST(1, 3, 3))},
	}
	if s.Text() != want.Text() {
		t.Errorf("stream = %s\nwant    %s", s.Text(), want.Text())
	}
	// ID-set semantics after the stream: location 3 still holds ST(P1,B1,1)
	// (node index 0), location 1 holds ST(P1,B3,3) (node index 2), matching
	// the ST-index table of Figure 4(c).
	tr := descriptor.NewTracker()
	for _, sym := range s {
		tr.Apply(sym)
	}
	if n, ok := tr.Owner(3); !ok || n != 0 {
		t.Errorf("location 3 owner = %d, %v; want node 0", n, ok)
	}
	if n, ok := tr.Owner(1); !ok || n != 2 {
		t.Errorf("location 1 owner = %d, %v; want node 2", n, ok)
	}
	if n, ok := tr.Owner(4); !ok || n != 1 {
		t.Errorf("location 4 owner = %d, %v; want node 1", n, ok)
	}
	if _, ok := tr.Owner(2); ok {
		t.Error("location 2 should hold no store")
	}
}

func opp(o trace.Op) *trace.Op { return &o }

func TestInheritanceObserverLoadEdge(t *testing.T) {
	script := &protocol.Scripted{
		ProtoName: "ld", P: 2, B: 1, V: 1, L: 2,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.Internal("share", 2, 1), Copies: []protocol.Copy{{Dst: 2, Src: 1}}},
			{Action: protocol.MemOp(trace.LD(2, 1, 1)), Loc: 2},
		},
	}
	run := runScript(t, script)
	s, err := ObserveInheritance(run)
	if err != nil {
		t.Fatal(err)
	}
	d := descriptor.Decode(s)
	if len(d.Edges) != 1 || d.Edges[0].From != 0 || d.Edges[0].To != 1 {
		t.Fatalf("inheritance edges = %+v", d.Edges)
	}
}

func TestInheritanceObserverInvalidation(t *testing.T) {
	script := &protocol.Scripted{
		ProtoName: "inv", P: 1, B: 1, V: 1, L: 1,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.Internal("evict", 1, 1), Copies: []protocol.Copy{{Dst: 1, Src: 0}}},
		},
	}
	run := runScript(t, script)
	s, err := ObserveInheritance(run)
	if err != nil {
		t.Fatal(err)
	}
	tr := descriptor.NewTracker()
	for _, sym := range s {
		tr.Apply(sym)
	}
	if _, ok := tr.Owner(1); ok {
		t.Error("location 1 should be unbound after invalidation")
	}
}

// observeAndCheck runs a random serial-memory run through the full
// observer and the full checker.
func observeAndCheck(t *testing.T, p protocol.Protocol, steps int, seed int64) error {
	t.Helper()
	run := protocol.RandomRun(p, steps, seed)
	stream, o, err := ObserveRun(run, Generator{}, Config{})
	if err != nil {
		t.Fatalf("observer failed on run %s: %v", run, err)
	}
	c := checker.New(o.K())
	c.SetParams(p.Params())
	for _, sym := range stream {
		if err := c.Step(sym); err != nil {
			return err
		}
	}
	return c.Finish()
}

func TestSerialMemoryRunsAccepted(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 30; seed++ {
		if err := observeAndCheck(t, p, 25, seed); err != nil {
			t.Fatalf("seed %d: serial memory rejected: %v", seed, err)
		}
	}
}

func TestSerialMemoryTracesAreSC(t *testing.T) {
	// Cross-check: the observed stream's trace equals the run's trace, and
	// the run's trace has a serial reordering (here: itself).
	p := serial.New(trace.Params{Procs: 3, Blocks: 2, Values: 2})
	run := protocol.RandomRun(p, 20, 7)
	stream, _, err := ObserveRun(run, Generator{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := stream.Trace()
	if got.String() != run.Trace.String() {
		t.Errorf("observer trace %s != run trace %s", got, run.Trace)
	}
	if !run.Trace.IsSerial() {
		t.Error("serial memory produced a non-serial trace")
	}
}

func TestObserverCatchesWrongLoadValue(t *testing.T) {
	// A protocol whose load returns a value that its tracking label says
	// the location does not hold: the observer must flag inconsistency.
	script := &protocol.Scripted{
		ProtoName: "wrong", P: 1, B: 1, V: 2, L: 1,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.MemOp(trace.LD(1, 1, 2)), Loc: 1},
		},
	}
	run := runScript(t, script)
	_, _, err := ObserveRun(run, Generator{}, Config{})
	if err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("got %v", err)
	}
}

func TestObserverCatchesLoadFromEmptyLocation(t *testing.T) {
	script := &protocol.Scripted{
		ProtoName: "empty", P: 1, B: 1, V: 1, L: 1,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.LD(1, 1, 1)), Loc: 1},
		},
	}
	run := runScript(t, script)
	_, _, err := ObserveRun(run, Generator{}, Config{})
	if err == nil || !strings.Contains(err.Error(), "no store") {
		t.Errorf("got %v", err)
	}
}

func TestObserverBottomLoadBeforeAndAfterFirstStore(t *testing.T) {
	script := &protocol.Scripted{
		ProtoName: "bottom", P: 2, B: 1, V: 1, L: 2,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.LD(2, 1, trace.Bottom)), Loc: 2},
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.MemOp(trace.LD(2, 1, trace.Bottom)), Loc: 2},
		},
	}
	run := runScript(t, script)
	stream, o, err := ObserveRun(run, Generator{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStream(stream, o.K()); err != nil {
		t.Errorf("⊥-load pattern rejected: %v", err)
	}
	// Both ⊥-loads must have forced edges to the store.
	forced := 0
	for _, sym := range stream {
		if e, ok := sym.(descriptor.Edge); ok && e.Label == descriptor.Forced {
			forced++
		}
	}
	if forced != 2 {
		t.Errorf("forced edges = %d, want 2", forced)
	}
}

func checkStream(s descriptor.Stream, k int) error {
	return checker.Check(s, k)
}

func TestObserverStaleCopyGetsForcedEdge(t *testing.T) {
	// A load from a stale copy after a newer store to the same block: the
	// forced edge to the successor must be emitted immediately.
	script := &protocol.Scripted{
		ProtoName: "stale", P: 2, B: 1, V: 2, L: 3,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.Internal("share", 2, 1), Copies: []protocol.Copy{{Dst: 3, Src: 1}}},
			{Action: protocol.MemOp(trace.ST(1, 1, 2)), Loc: 1},
			{Action: protocol.MemOp(trace.LD(2, 1, 1)), Loc: 3}, // stale read
		},
	}
	run := runScript(t, script)
	stream, o, err := ObserveRun(run, Generator{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStream(stream, o.K()); err != nil {
		t.Errorf("stale-copy pattern rejected: %v", err)
	}
	// The stream must contain a forced edge (the stale load before the
	// second store in any serial order would otherwise be legal).
	hasForced := false
	for _, sym := range stream {
		if e, ok := sym.(descriptor.Edge); ok && e.Label == descriptor.Forced {
			hasForced = true
		}
	}
	if !hasForced {
		t.Error("no forced edge emitted for stale read")
	}
}

func TestObserverStaleReadAfterOverwriteIsNotSC(t *testing.T) {
	// Reading the stale copy *after also reading the new value* on the same
	// processor is an SC violation; the checker must reject the stream.
	script := &protocol.Scripted{
		ProtoName: "staleviolation", P: 2, B: 1, V: 2, L: 3,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.Internal("share", 2, 1), Copies: []protocol.Copy{{Dst: 3, Src: 1}}},
			{Action: protocol.MemOp(trace.ST(1, 1, 2)), Loc: 1},
			{Action: protocol.Internal("share2", 2, 1), Copies: []protocol.Copy{{Dst: 2, Src: 1}}},
			{Action: protocol.MemOp(trace.LD(2, 1, 2)), Loc: 2}, // sees new value
			{Action: protocol.MemOp(trace.LD(2, 1, 1)), Loc: 3}, // then stale: cycle
		},
	}
	run := runScript(t, script)
	stream, o, err := ObserveRun(run, Generator{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !trace.HasSerialReordering(run.Trace) {
		// Ground truth agrees this trace is not SC.
	} else {
		t.Fatal("test premise wrong: trace is SC")
	}
	if err := checkStream(stream, o.K()); err == nil {
		t.Error("non-SC stale-read pattern accepted")
	}
}

func TestObserverPoolExhaustion(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	run := protocol.RandomRun(p, 30, 3)
	_, _, err := ObserveRun(run, Generator{}, Config{PoolSize: 2})
	if err == nil || !strings.Contains(err.Error(), "pool") {
		t.Errorf("got %v", err)
	}
}

func TestObserverIDsStayWithinPool(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	for seed := int64(0); seed < 10; seed++ {
		run := protocol.RandomRun(p, 40, seed)
		stream, o, err := ObserveRun(run, Generator{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := stream.MaxID(); got > o.K()+1 {
			t.Fatalf("stream uses ID %d > pool %d", got, o.K()+1)
		}
		if err := stream.Validate(o.K(), true); err != nil {
			t.Fatalf("stream invalid: %v", err)
		}
	}
}

func TestObserverStateKeyDeterministic(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	run := protocol.RandomRun(p, 15, 5)
	var keys1, keys2 [][]byte
	for pass := 0; pass < 2; pass++ {
		o := New(p, Generator{}, Config{}, func(descriptor.Symbol) error { return nil })
		var keys [][]byte
		for _, step := range run.Steps {
			if err := o.Step(step.Transition); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, o.StateKey())
		}
		if pass == 0 {
			keys1 = keys
		} else {
			keys2 = keys
		}
	}
	for i := range keys1 {
		if string(keys1[i]) != string(keys2[i]) {
			t.Fatalf("state key diverged at step %d", i)
		}
	}
}

func TestDefaultPoolSize(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 3, Values: 2})
	want := 3 + 2*3 + 2 + 2*3 + 2 // L + p·b + p + 2b + 2
	if got := DefaultPoolSize(p); got != want {
		t.Errorf("DefaultPoolSize = %d, want %d", got, want)
	}
}

func TestObserverStats(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2})
	run := protocol.RandomRun(p, 20, 9)
	stream, o, err := ObserveRun(run, Generator{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Ops != len(run.Trace) {
		t.Errorf("Ops = %d, want %d", st.Ops, len(run.Trace))
	}
	if st.Symbols != len(stream) {
		t.Errorf("Symbols = %d, want %d", st.Symbols, len(stream))
	}
	if st.PeakIDs < 1 || st.PeakIDs > o.K()+1 {
		t.Errorf("PeakIDs = %d outside (0,%d]", st.PeakIDs, o.K()+1)
	}
}

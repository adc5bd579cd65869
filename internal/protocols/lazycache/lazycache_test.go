package lazycache

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/mc"
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

func observeWith(t *testing.T, run *protocol.Run, gen observer.Generator, pool int) error {
	t.Helper()
	stream, o, err := observer.ObserveRun(run, gen, observer.Config{PoolSize: pool})
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

// reorderedRun drives the run in which the per-block serialization order
// (memory-write order) inverts the trace order of two stores: P1 stores
// x←1, P2 stores x←2, but P2's memory-write happens first, and P3 reads 2
// then 1.
func reorderedRun(t *testing.T, m *Protocol) *protocol.Run {
	t.Helper()
	r := protocol.NewRunner(m)
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "ST(P2,B1,2)")
	take(t, r, "memory-write(2,1)") // serializes ST(P2,B1,2) first
	take(t, r, "memory-write(1,1)")
	take(t, r, "cache-update(3,1)") // P3 sees 2
	take(t, r, "LD(P3,B1,2)")
	take(t, r, "cache-update(3,1)") // then 1
	take(t, r, "LD(P3,B1,1)")
	return r.Run()
}

func TestReorderedRunIsSC(t *testing.T) {
	m := New(trace.Params{Procs: 3, Blocks: 1, Values: 2}, 1, 2)
	run := reorderedRun(t, m)
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("lazy caching trace must be SC: %s", run.Trace)
	}
}

func TestLazyGeneratorAcceptsReorderedRun(t *testing.T) {
	m := New(trace.Params{Procs: 3, Blocks: 1, Values: 2}, 1, 2)
	run := reorderedRun(t, m)
	if err := observeWith(t, run, observer.Generator{SerializeOn: MemoryWrite}, m.RecommendedPoolSize()); err != nil {
		t.Errorf("lazy generator rejected a legal lazy-caching run: %v", err)
	}
}

func TestRealTimeGeneratorRejectsReorderedRun(t *testing.T) {
	// Section 4.2's point: lazy caching does NOT have the real-time ST
	// reordering property, so the trivial generator produces a cyclic
	// witness graph on the reordered run.
	m := New(trace.Params{Procs: 3, Blocks: 1, Values: 2}, 1, 2)
	run := reorderedRun(t, m)
	if err := observeWith(t, run, observer.Generator{}, m.RecommendedPoolSize()); err == nil {
		t.Error("real-time generator accepted the memory-write-reordered run")
	}
}

func TestRandomRunsAccepted(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2}, 2, 3)
	for seed := int64(0); seed < 25; seed++ {
		run := protocol.RandomRun(m, 40, seed)
		if err := observeWith(t, run, observer.Generator{SerializeOn: MemoryWrite}, m.RecommendedPoolSize()); err != nil {
			t.Fatalf("seed %d: rejected: %v\nrun: %s", seed, err, run)
		}
	}
}

func TestRandomRunTracesAreSC(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2}, 2, 3)
	for seed := int64(0); seed < 8; seed++ {
		run := protocol.RandomRun(m, 30, seed)
		if len(run.Trace) > 14 {
			run.Trace = run.Trace[:14]
		}
		if !trace.HasSerialReordering(run.Trace) {
			t.Fatalf("seed %d: lazy caching trace not SC: %s", seed, run.Trace)
		}
	}
}

func TestLoadGatedByOutQueueAndMarks(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1}, 1, 2)
	r := protocol.NewRunner(m)
	take(t, r, "ST(P1,B1,1)")
	// P1's out-queue is non-empty: no P1 loads may be enabled.
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsLoad() && tr.Action.Op.Proc == 1 {
			t.Fatalf("load %s enabled with non-empty out-queue", tr.Action)
		}
	}
	take(t, r, "memory-write(1,1)")
	// P1's in-queue now holds a marked entry: still no P1 loads.
	for _, tr := range r.Enabled() {
		if tr.Action.IsMem() && tr.Action.Op.IsLoad() && tr.Action.Op.Proc == 1 {
			t.Fatalf("load %s enabled with marked in-queue entry", tr.Action)
		}
	}
	take(t, r, "cache-update(1,1)")
	// Now P1 may read its own store's value.
	take(t, r, "LD(P1,B1,1)")
}

func TestStaleReadIsLegal(t *testing.T) {
	// P2 may read ⊥ from its cache while P1's store sits in P2's in-queue:
	// laziness in action, still SC.
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1}, 1, 2)
	r := protocol.NewRunner(m)
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "memory-write(1,1)")
	take(t, r, "LD(P2,B1,⊥)") // stale: update still queued
	take(t, r, "cache-update(2,1)")
	take(t, r, "LD(P2,B1,1)")
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("stale-read trace must be SC: %s", run.Trace)
	}
	if err := observeWith(t, run, observer.Generator{SerializeOn: MemoryWrite}, m.RecommendedPoolSize()); err != nil {
		t.Errorf("stale read rejected: %v", err)
	}
}

func TestModelCheckTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking in short mode")
	}
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 1}, 1, 1)
	res := mc.Verify(m, mc.Options{
		PoolSize:  m.RecommendedPoolSize(),
		Generator: observer.Generator{SerializeOn: MemoryWrite},
		MaxDepth:  10,
	})
	if res.Verdict == mc.Violated {
		t.Fatalf("lazy caching flagged as violating SC: %s", res)
	}
	t.Logf("%s", res)
}

func TestGeneratorFinishOrdersLeftovers(t *testing.T) {
	// Stores never memory-written by the run's end are serialized by
	// Finish; the checker must still accept (constraint 3 totality).
	m := New(trace.Params{Procs: 2, Blocks: 1, Values: 2}, 2, 2)
	r := protocol.NewRunner(m)
	take(t, r, "ST(P1,B1,1)")
	take(t, r, "ST(P2,B1,2)")
	run := r.Run()
	if err := observeWith(t, run, observer.Generator{SerializeOn: MemoryWrite}, m.RecommendedPoolSize()); err != nil {
		t.Errorf("pending-store run rejected: %v", err)
	}
}

func TestRecommendedPoolSize(t *testing.T) {
	m := New(trace.Params{Procs: 2, Blocks: 2, Values: 2}, 2, 3)
	if m.RecommendedPoolSize() <= m.Locations() {
		t.Error("pool must exceed location count")
	}
}

func TestCapacityFloors(t *testing.T) {
	m := New(trace.Params{Procs: 1, Blocks: 1, Values: 1}, 0, 0)
	if m.OutCap != 1 || m.InCap != 1 {
		t.Error("capacity floors not applied")
	}
}

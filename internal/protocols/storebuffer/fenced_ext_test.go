package storebuffer_test

// External test package: these tests go through the registry, which
// imports storebuffer, so they cannot live in the internal test package.

import (
	"testing"

	"scverify/internal/mc"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/sctest"
	"scverify/internal/trace"
)

func TestFencedVariantIsSC(t *testing.T) {
	tgt, err := registry.Build("storebuffer-fenced",
		registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 1}, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := mc.Verify(tgt.Protocol, mc.Options{
		Generator: tgt.Generator,
		PoolSize:  tgt.PoolSize,
		MaxDepth:  8,
	})
	if res.Verdict == mc.Violated {
		t.Fatalf("fenced store buffer flagged: %s", res)
	}
	t.Logf("%s", res)
	// Cross-check with random testing: no rejections, no soundness breaks.
	camp := sctest.Campaign(tgt, sctest.Config{Runs: 200, Steps: 14, Seed: 9, Exact: true})
	if camp.Rejected != 0 || camp.SoundnessBreaks != 0 {
		t.Fatalf("fenced campaign: %s (first: %v)", camp, camp.FirstCause)
	}
}

func TestFencedDrainReorderAcrossProcsAccepted(t *testing.T) {
	// P1 stores first in trace order but P2's store drains first: the
	// drain-order generator must certify the run (the real-time one
	// cannot).
	tgt, err := registry.Build("storebuffer-fenced",
		registry.Options{Params: trace.Params{Procs: 3, Blocks: 1, Values: 2}, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := protocol.NewRunner(tgt.Protocol)
	for _, want := range []string{
		"ST(P1,B1,1)", "ST(P2,B1,2)",
		"Drain(2)", "LD(P3,B1,2)",
		"Drain(1)", "LD(P3,B1,1)",
	} {
		found := false
		for _, tr := range r.Enabled() {
			if tr.Action.String() == want {
				r.Take(tr)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("action %q not enabled", want)
		}
	}
	run := r.Run()
	if !trace.HasSerialReordering(run.Trace) {
		t.Fatalf("premise: trace should be SC: %s", run.Trace)
	}
	if err := sctest.CheckRun(run, tgt); err != nil {
		t.Errorf("drain-order generator rejected: %v", err)
	}
	// And the real-time generator must reject the same run.
	rt := tgt
	rt.Generator = observer.Generator{}
	if err := sctest.CheckRun(run, rt); err == nil {
		t.Error("real-time generator accepted the drain-reordered run")
	}
}

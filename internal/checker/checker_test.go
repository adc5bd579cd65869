package checker

import (
	"errors"
	"strings"
	"testing"

	"scverify/internal/descriptor"
	"scverify/internal/graph"
	"scverify/internal/trace"
)

func op(o trace.Op) *trace.Op { return &o }

func figure3Stream() descriptor.Stream {
	return descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.POSTo},
		descriptor.Node{ID: 4, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 4, Label: descriptor.Inh},
		descriptor.Edge{From: 2, To: 4, Label: descriptor.PO},
		descriptor.Edge{From: 4, To: 3, Label: descriptor.Forced},
		descriptor.Node{ID: 1, Op: op(trace.LD(2, 1, 2))},
		descriptor.Edge{From: 3, To: 1, Label: descriptor.Inh},
		descriptor.Edge{From: 4, To: 1, Label: descriptor.PO},
	}
}

func TestFigure3StreamAccepted(t *testing.T) {
	if err := Check(figure3Stream(), 3); err != nil {
		t.Errorf("Figure 3 stream rejected: %v", err)
	}
}

func TestRejectsUnlabeledNode(t *testing.T) {
	s := descriptor.Stream{descriptor.Node{ID: 1}}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "no operation label") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsOutOfParamsLabel(t *testing.T) {
	c := New(3)
	c.SetParams(trace.Params{Procs: 1, Blocks: 1, Values: 1})
	err := c.Step(descriptor.Node{ID: 1, Op: op(trace.ST(2, 1, 1))})
	if err == nil || !strings.Contains(err.Error(), "outside parameters") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsCycle(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.ST(2, 1, 2))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.STo},
		descriptor.Edge{From: 2, To: 1, Label: descriptor.None},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsCrossProcessorPO(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.ST(2, 1, 2))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.PO},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "crosses processors") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsDoubleProgramOrderOut(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.ST(1, 1, 2))},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 3))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.PO},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.PO},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "second outgoing program-order") {
		t.Errorf("got %v", err)
	}
}

func TestDuplicateEdgeSymbolsIdempotent(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(1, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.POInh},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.POInh},
	}
	if err := Check(s, 3); err != nil {
		t.Errorf("duplicate edge symbols rejected: %v", err)
	}
}

func TestRejectsLoadWithoutInheritanceAtEnd(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.None}, // not an inh edge
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "constraint 4") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsLoadRetiredWithoutInheritance(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.LD(1, 1, 1))},
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))}, // displaces the load
	}
	c := New(3)
	var err error
	for _, sym := range s {
		if err = c.Step(sym); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "retired without an inheritance edge") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsInheritanceValueMismatch(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 2))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("got %v", err)
	}
}

func TestRejectsInheritanceIntoBottomLoad(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, trace.Bottom))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "constraint 4") {
		t.Errorf("got %v", err)
	}
}

func TestConstraint5aMissingForcedRejectedAtEnd(t *testing.T) {
	// Store 1, a load inheriting it, then store 2 in ST order after store 1,
	// but no forced edge from the load: reject at Finish.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.POSTo},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "5a") {
		t.Errorf("got %v", err)
	}
}

func TestConstraint5aForcedBeforeSTOrderEdge(t *testing.T) {
	// The forced edge arrives before the ST-order edge that arms the
	// obligation; constraint graphs are static objects, so this must pass.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 2, To: 3, Label: descriptor.Forced},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.POSTo},
	}
	if err := Check(s, 3); err != nil {
		t.Errorf("early forced edge rejected: %v", err)
	}
}

func TestConstraint5aDischargedBySuccessorInheritor(t *testing.T) {
	// Figure 3's situation: node 2 never gets a forced edge, but node 4
	// (same processor, same inherited store) does.
	if err := Check(figure3Stream(), 3); err != nil {
		t.Errorf("successor discharge rejected: %v", err)
	}
}

func TestConstraint5aEagerRejectOnRetiredTarget(t *testing.T) {
	// The obligation's target store loses its only ID before the forced
	// edge is emitted: no forced edge can ever reach it, reject eagerly.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.POSTo},
		descriptor.Node{ID: 3, Op: op(trace.ST(2, 2, 1))}, // retires the target
	}
	c := New(3)
	var err error
	for _, sym := range s {
		if err = c.Step(sym); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "5a") {
		t.Errorf("got %v", err)
	}
}

func TestConstraint5bBottomLoadNeedsForcedEdge(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.LD(2, 1, trace.Bottom))},
		descriptor.Node{ID: 2, Op: op(trace.ST(1, 1, 1))},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "5b") {
		t.Errorf("got %v", err)
	}
	// With the forced edge it passes.
	s = append(s, descriptor.Edge{From: 1, To: 2, Label: descriptor.Forced})
	if err := Check(s, 3); err != nil {
		t.Errorf("with forced edge: %v", err)
	}
}

func TestConstraint5bVacuousWithoutStores(t *testing.T) {
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.LD(2, 1, trace.Bottom))},
	}
	if err := Check(s, 3); err != nil {
		t.Errorf("⊥-load with no stores rejected: %v", err)
	}
}

func TestConstraint5bForcedToNonFirstStoreInsufficient(t *testing.T) {
	// Two stores with ST order s1 -> s2; the ⊥-load's forced edge goes to
	// s2 (not the first store): reject.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.LD(2, 1, trace.Bottom))},
		descriptor.Node{ID: 2, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 2, To: 3, Label: descriptor.POSTo},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.Forced},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "5b") {
		t.Errorf("got %v", err)
	}
}

func TestConstraint5bLaterBottomLoadTakesOver(t *testing.T) {
	// Two ⊥-loads of the same (P,B); only the later one carries the forced
	// edge — the earlier is discharged via program order.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.LD(2, 1, trace.Bottom))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, trace.Bottom))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.PO},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 1))},
		descriptor.Edge{From: 2, To: 3, Label: descriptor.Forced},
	}
	if err := Check(s, 3); err != nil {
		t.Errorf("takeover rejected: %v", err)
	}
}

func TestConstraint2TotalityAtEnd(t *testing.T) {
	// Two operations of P1 with no program-order edge between them.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.STo},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "constraint 2") {
		t.Errorf("got %v", err)
	}
}

func TestConstraint3TotalityAtEnd(t *testing.T) {
	// Two stores to B1 with no ST-order edge.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.ST(2, 1, 2))},
	}
	if err := Check(s, 3); err == nil || !strings.Contains(err.Error(), "constraint 3") {
		t.Errorf("got %v", err)
	}
}

func TestEagerRejectTwoRetiredFirstStores(t *testing.T) {
	// Two stores to the same block both retired without incoming ST-order
	// edges: constraint 3 is unsatisfiable; reject before the stream ends.
	s := descriptor.Stream{
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 1, Op: op(trace.ST(2, 1, 2))},
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 2, 1))},
	}
	c := New(3)
	var err error
	for _, sym := range s {
		if err = c.Step(sym); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "two first stores") {
		t.Errorf("got %v", err)
	}
}

func TestEmptyStreamAccepted(t *testing.T) {
	if err := Check(nil, 2); err != nil {
		t.Errorf("empty stream rejected: %v", err)
	}
}

func TestCanonicalEncodedStreamsAccepted(t *testing.T) {
	// End-to-end: SC trace -> witness reordering -> canonical constraint
	// graph -> descriptor encoding -> full checker must accept.
	gen := trace.NewGenerator(trace.Params{Procs: 3, Blocks: 2, Values: 3}, 21)
	for i := 0; i < 40; i++ {
		tr := gen.SC(16)
		r, ok := trace.FindSerialReordering(tr)
		if !ok {
			t.Fatal("generated trace not SC")
		}
		g := graph.Canonical(tr, r)
		s, k := descriptor.EncodeAuto(g)
		if err := Check(s, k); err != nil {
			t.Fatalf("canonical stream rejected for %s: %v\nstream: %s", tr, err, s.Text())
		}
	}
}

func TestCheckerStickyRejection(t *testing.T) {
	c := New(2)
	if err := c.Step(descriptor.Node{ID: 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := c.Step(descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))}); err == nil {
		t.Error("rejection not sticky")
	}
	if err := c.Finish(); err == nil {
		t.Error("Finish should return the rejection")
	}
	if c.Err() == nil {
		t.Error("Err() should report rejection")
	}
}

// TestFinishIsIdempotent checks that Finish is FinishDry made sticky:
// FinishDry, Finish and a second Finish return the same text, on accepted
// streams and on one rejected at end of stream, and after Finish, Err
// reports the same rejection as a *RejectError at symbol index -1.
func TestFinishIsIdempotent(t *testing.T) {
	type row struct {
		s descriptor.Stream
		k int
	}
	rows := []row{{figure3Stream(), 3}}
	streams, ks := observedStreams(t)
	for i, s := range streams {
		rows = append(rows, row{s, ks[i]})
	}
	rows = append(rows, row{descriptor.Stream{ // constraint 5a at end of stream
		descriptor.Node{ID: 1, Op: op(trace.ST(1, 1, 1))},
		descriptor.Node{ID: 2, Op: op(trace.LD(2, 1, 1))},
		descriptor.Edge{From: 1, To: 2, Label: descriptor.Inh},
		descriptor.Node{ID: 3, Op: op(trace.ST(1, 1, 2))},
		descriptor.Edge{From: 1, To: 3, Label: descriptor.POSTo},
	}, 3})
	rejected := 0
	for i, r := range rows {
		c := New(r.k)
		runInto(c, r.s)
		stepErr := c.Err()
		dry := errString(c.FinishDry())
		if got := errString(c.Finish()); got != dry {
			t.Fatalf("row %d: Finish says %q, FinishDry said %q", i, got, dry)
		}
		if got := errString(c.Finish()); got != dry {
			t.Fatalf("row %d: second Finish says %q, first said %q", i, got, dry)
		}
		if got := errString(c.Err()); got != dry {
			t.Fatalf("row %d: after Finish Err says %q, Finish said %q", i, got, dry)
		}
		var re *RejectError
		if stepErr == nil && c.Err() != nil {
			rejected++
			if !errors.As(c.Err(), &re) || re.SymbolIndex != -1 {
				t.Fatalf("row %d: end-of-stream rejection %#v, want a *RejectError at symbol -1", i, c.Err())
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no row was rejected at end of stream")
	}
}

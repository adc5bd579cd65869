// Quickstart: define a protocol run with tracking labels, watch the
// observer turn it into a k-graph descriptor, and let the protocol-
// independent checker decide sequential consistency — then verify a whole
// protocol exhaustively with the model checker.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/mc"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/protocols/serial"
	"scverify/internal/trace"
)

func main() {
	// --- Part 1: one run through the observer/checker pipeline. ---------
	//
	// A hand-written protocol run: two processors sharing one block
	// through a cache-to-cache copy. Storage locations: 1 = P1's cache,
	// 2 = P2's cache. Tracking labels say which location each operation
	// touches and how internal actions copy data — that is all the
	// observer needs (Section 4.1 of Condon & Hu).
	script := &protocol.Scripted{
		ProtoName: "quickstart", P: 2, B: 1, V: 2, L: 2,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.Internal("share", 2, 1), Copies: []protocol.Copy{{Dst: 2, Src: 1}}},
			{Action: protocol.MemOp(trace.LD(2, 1, 1)), Loc: 2},
			{Action: protocol.MemOp(trace.ST(1, 1, 2)), Loc: 1},
			{Action: protocol.MemOp(trace.LD(2, 1, 1)), Loc: 2}, // stale — but still SC
		},
	}
	run := protocol.RandomRun(script, 10, 0) // deterministic: one enabled step each time

	fmt.Println("run:  ", run)
	fmt.Println("trace:", run.Trace)

	// The zero Generator orders each block's stores as they are issued
	// (Section 4.2's real-time generator), as every protocol here but lazy
	// caching and the fenced store buffer allows.
	stream, obs, err := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
	if err != nil {
		log.Fatalf("observer: %v", err)
	}
	fmt.Printf("descriptor (k=%d): %s\n", obs.K(), stream.Text())

	if err := checker.Check(stream, obs.K()); err != nil {
		fmt.Println("verdict: REJECTED —", err)
	} else {
		fmt.Println("verdict: accepted — the run is witnessed sequentially consistent")
	}

	// Cross-check with the exact (exponential) decision procedure.
	fmt.Println("exact SC check:", trace.HasSerialReordering(run.Trace))

	// The descriptor really is a graph: decode it back and inspect.
	d := descriptor.Decode(stream)
	fmt.Printf("decoded graph: %d nodes, %d edges, acyclic=%v\n",
		len(d.Labels), len(d.Edges), d.IsAcyclic())

	// --- Part 2: verify a whole protocol, every run at once. ------------
	// The zero Options explore with the real-time generator and the
	// default ID pool.
	p := serial.New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	res := mc.Verify(p, mc.Options{})
	fmt.Println("\nmodel checking:", res)
}

// Package scverify's root benchmark harness: one benchmark per experiment
// row in DESIGN.md, so `go test -bench=. -benchmem` regenerates the
// performance side of every paper artifact. The correctness side is
// produced by cmd/scexperiments and recorded in EXPERIMENTS.md.
package scverify

import (
	"testing"

	"scverify/internal/boundedreorder"
	"scverify/internal/checker"
	"scverify/internal/cycle"
	"scverify/internal/descriptor"
	"scverify/internal/graph"
	"scverify/internal/mc"
	"scverify/internal/memmodel"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/sctest"
	"scverify/internal/sizebound"
	"scverify/internal/trace"
)

// --- E1: Figure 1 ----------------------------------------------------------

func BenchmarkFigure1Outcomes(b *testing.B) {
	prog := memmodel.Figure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(prog.SCOutcomes()); got != 3 {
			b.Fatalf("SC outcomes = %d", got)
		}
	}
}

func BenchmarkFigure1Relaxed(b *testing.B) {
	prog := memmodel.Figure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(prog.RelaxedOutcomes()); got != 4 {
			b.Fatalf("relaxed outcomes = %d", got)
		}
	}
}

// --- E2: Figure 3 ----------------------------------------------------------

func figure3Graph() *graph.Graph {
	t := trace.Trace{
		trace.ST(1, 1, 1), trace.LD(2, 1, 1), trace.ST(1, 1, 2),
		trace.LD(2, 1, 1), trace.LD(2, 1, 2),
	}
	g := graph.New(t)
	g.AddEdge(0, 1, graph.Inheritance)
	g.AddEdge(0, 2, graph.ProgramOrder|graph.StoreOrder)
	g.AddEdge(0, 3, graph.Inheritance)
	g.AddEdge(1, 3, graph.ProgramOrder)
	g.AddEdge(3, 2, graph.Forced)
	g.AddEdge(2, 4, graph.Inheritance)
	g.AddEdge(3, 4, graph.ProgramOrder)
	return g
}

func BenchmarkFigure3Descriptor(b *testing.B) {
	g := figure3Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, k := descriptor.EncodeAuto(g)
		if err := checker.Check(s, k); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figure 4 ----------------------------------------------------------

func BenchmarkFigure4Tracking(b *testing.B) {
	script := &protocol.Scripted{
		ProtoName: "figure4", P: 2, B: 3, V: 3, L: 4,
		Steps: []protocol.ScriptStep{
			{Action: protocol.MemOp(trace.ST(1, 1, 1)), Loc: 1},
			{Action: protocol.MemOp(trace.ST(2, 2, 2)), Loc: 4},
			{Action: protocol.Internal("Get-Shared", 2, 1), Copies: []protocol.Copy{{Dst: 3, Src: 1}}},
			{Action: protocol.MemOp(trace.ST(1, 3, 3)), Loc: 1},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := protocol.RandomRun(script, 10, 0)
		if _, err := observer.ObserveInheritance(run); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: cycle checker throughput vs bandwidth bound ------------------------

func benchCycleChecker(b *testing.B, k, nodes int) {
	// Build a long acyclic stream: a rolling chain that constantly
	// recycles IDs, the worst case for contraction bookkeeping.
	var s descriptor.Stream
	for i := 0; i < nodes; i++ {
		id := 1 + i%(k+1)
		s = append(s, descriptor.Node{ID: id})
		if i > 0 {
			prev := 1 + (i-1)%(k+1)
			if prev != id {
				s = append(s, descriptor.Edge{From: prev, To: id})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle.CheckStream(s, k); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(s)))
}

func BenchmarkCycleCheckerK4(b *testing.B)  { benchCycleChecker(b, 4, 4096) }
func BenchmarkCycleCheckerK8(b *testing.B)  { benchCycleChecker(b, 8, 4096) }
func BenchmarkCycleCheckerK16(b *testing.B) { benchCycleChecker(b, 16, 4096) }
func BenchmarkCycleCheckerK32(b *testing.B) { benchCycleChecker(b, 32, 4096) }

// --- E5: full checker on canonical streams ----------------------------------

func BenchmarkCheckerCanonicalStream(b *testing.B) {
	gen := trace.NewGenerator(trace.Params{Procs: 4, Blocks: 3, Values: 3}, 23)
	tr := gen.SC(64)
	r, ok := trace.FindSerialReordering(tr)
	if !ok {
		b.Fatal("trace not SC")
	}
	s, k := descriptor.EncodeAuto(graph.Canonical(tr, r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checker.Check(s, k); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: verification of the protocol suite ---------------------------------

func benchVerify(b *testing.B, name string, params trace.Params, depth int, want mc.Verdict) {
	tgt, err := registry.Build(name, registry.Options{Params: params, QueueCap: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := mc.Verify(tgt.Protocol, mc.Options{
			Generator: tgt.Generator,
			PoolSize:  tgt.PoolSize,
			MaxDepth:  depth,
		})
		if res.Verdict != want {
			b.Fatalf("verdict = %s, want %s", res.Verdict, want)
		}
	}
}

func BenchmarkVerifySerialFull(b *testing.B) {
	benchVerify(b, "serial", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 0, mc.Verified)
}

func BenchmarkVerifyMSIDepth8(b *testing.B) {
	benchVerify(b, "msi", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 8, mc.Incomplete)
}

func BenchmarkVerifyStoreBufferViolation(b *testing.B) {
	benchVerify(b, "storebuffer", trace.Params{Procs: 2, Blocks: 2, Values: 1}, 0, mc.Violated)
}

func BenchmarkVerifyLostWritebackViolation(b *testing.B) {
	benchVerify(b, "msi-lost-writeback", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 0, mc.Violated)
}

func BenchmarkVerifyLazyDepth8(b *testing.B) {
	benchVerify(b, "lazy", trace.Params{Procs: 2, Blocks: 1, Values: 1}, 8, mc.Incomplete)
}

// --- E7: size bound ----------------------------------------------------------

func BenchmarkSizeBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := sizebound.Sweep(
			[]int{2, 4, 8, 16}, []int{1, 2, 4, 8}, []int{2, 4, 8},
			func(p, bl int) int { return bl * (1 + p) },
		)
		if len(rows) != 48 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// --- E8: testing scenario — observer/checker vs exact search ----------------

func BenchmarkTestingScenarioMSI(b *testing.B) {
	tgt, err := registry.Build("msi", registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 2}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := sctest.Campaign(tgt, sctest.Config{Runs: 20, Steps: 24, Seed: int64(i)})
		if res.Rejected != 0 {
			b.Fatalf("MSI rejected: %v", res.FirstCause)
		}
	}
}

// The crossover shape of E8: the exact reordering search (NP-hard in
// general) blows up with processor count on contended traces, while the
// observer/checker pipeline stays linear in trace length and insensitive
// to contention. Compare both on identical SC traces of fixed length 28
// over one highly contended block.
func benchExact(b *testing.B, procs, n int) {
	gen := trace.NewGenerator(trace.Params{Procs: procs, Blocks: 1, Values: 2}, 29)
	traces := make([]trace.Trace, 8)
	for i := range traces {
		traces[i] = gen.SC(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !trace.HasSerialReordering(traces[i%len(traces)]) {
			b.Fatal("trace not SC")
		}
	}
}

func benchPipeline(b *testing.B, procs, n int) {
	gen := trace.NewGenerator(trace.Params{Procs: procs, Blocks: 1, Values: 2}, 29)
	type prepared struct {
		s descriptor.Stream
		k int
	}
	items := make([]prepared, 8)
	for i := range items {
		tr := gen.SC(n)
		r, ok := trace.FindSerialReordering(tr)
		if !ok {
			b.Fatal("trace not SC")
		}
		s, k := descriptor.EncodeAuto(graph.Canonical(tr, r))
		items[i] = prepared{s: s, k: k}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		if err := checker.Check(it.s, it.k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSearchP2(b *testing.B)     { benchExact(b, 2, 28) }
func BenchmarkExactSearchP4(b *testing.B)     { benchExact(b, 4, 28) }
func BenchmarkExactSearchP6(b *testing.B)     { benchExact(b, 6, 28) }
func BenchmarkExactSearchP8(b *testing.B)     { benchExact(b, 8, 28) }
func BenchmarkCheckerPipelineP2(b *testing.B) { benchPipeline(b, 2, 28) }
func BenchmarkCheckerPipelineP4(b *testing.B) { benchPipeline(b, 4, 28) }
func BenchmarkCheckerPipelineP6(b *testing.B) { benchPipeline(b, 6, 28) }
func BenchmarkCheckerPipelineP8(b *testing.B) { benchPipeline(b, 8, 28) }

// --- E9: bounded-window witness ablation -------------------------------------

func BenchmarkBoundedReorderWindow(b *testing.B) {
	// The d=4 member of the delay family: window 6 required.
	tr := trace.Trace{trace.ST(1, 1, 1)}
	for i := 0; i < 4; i++ {
		tr = append(tr, trace.LD(2, 1, 1))
	}
	tr = append(tr, trace.LD(3, 1, trace.Bottom))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w := boundedreorder.MinWindow(tr); w != 6 {
			b.Fatalf("window = %d", w)
		}
	}
}

// --- Observer throughput and product-step cost (supporting measurements) ----

func BenchmarkObserverThroughputMSI(b *testing.B) {
	tgt, err := registry.Build("msi", registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 2}})
	if err != nil {
		b.Fatal(err)
	}
	run := protocol.RandomRun(tgt.Protocol, 512, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sctest.CheckRun(run, tgt); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(run.Steps)))
}

func BenchmarkObserverSymbolRate(b *testing.B) {
	tgt, err := registry.Build("directory", registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 2}})
	if err != nil {
		b.Fatal(err)
	}
	run := protocol.RandomRun(tgt.Protocol, 512, 37)
	b.ReportAllocs()
	b.ResetTimer()
	var symbols int
	for i := 0; i < b.N; i++ {
		stream, _, err := observer.ObserveRun(run, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize})
		if err != nil {
			b.Fatal(err)
		}
		symbols = len(stream)
	}
	b.ReportMetric(float64(symbols)/float64(len(run.Trace)), "symbols/op")
}

// BenchmarkWireRoundTrip measures the binary serialization of descriptor
// streams (the flat byte "string" the paper's automata read).
func BenchmarkWireRoundTrip(b *testing.B) {
	gen := trace.NewGenerator(trace.Params{Procs: 4, Blocks: 3, Values: 3}, 41)
	tr := gen.SC(64)
	r, _ := trace.FindSerialReordering(tr)
	s, _ := descriptor.EncodeAuto(graph.Canonical(tr, r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := descriptor.Marshal(s)
		if _, err := descriptor.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.SetBytes(int64(len(data)))
		}
	}
}

// BenchmarkStateKey measures the canonical product-key computation that
// dominates the model checker's per-state cost.
func BenchmarkStateKey(b *testing.B) {
	tgt, err := registry.Build("msi", registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 2}})
	if err != nil {
		b.Fatal(err)
	}
	chk := checker.New(tgt.K())
	obs := observer.New(tgt.Protocol, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize}, chk.Step)
	run := protocol.RandomRun(tgt.Protocol, 40, 43)
	for _, step := range run.Steps {
		if err := obs.Step(step.Transition); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rn := obs.CanonicalRename()
		_ = obs.CanonicalKey(rn)
		_ = chk.StateKeyRenamed(rn)
	}
}

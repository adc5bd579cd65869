package checker_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

// serveLongParams and the runs of serveLongStreams have the shape of the
// benchmark's serve-long sessions. Their witness-mode contraction chains
// outgrow the per-edge cap of the cycle checker, which short streams never
// do.
var serveLongParams = trace.Params{Procs: 4, Blocks: 2, Values: 2}

type serveLongStream struct {
	syms descriptor.Stream
	k    int
}

var buildServeLongStreams = sync.OnceValues(func() ([]serveLongStream, error) {
	tgt, err := registry.Build("directory", registry.Options{Params: serveLongParams})
	if err != nil {
		return nil, err
	}
	var streams []serveLongStream
	for i := 0; i < 8; i++ {
		run := protocol.RandomRun(tgt.Protocol, 10000, 1000+int64(i))
		syms, k, err := witness.Record(run, tgt)
		if err != nil {
			return nil, err
		}
		streams = append(streams, serveLongStream{syms, k})
	}
	return streams, nil
})

// serveLongStreams returns the descriptor streams of 8 random directory
// p4b2v2 runs of 10,000 steps (seeds 1000–1007, k=40), built once per test
// binary.
func serveLongStreams(tb testing.TB) []serveLongStream {
	tb.Helper()
	streams, err := buildServeLongStreams()
	if err != nil {
		tb.Fatal(err)
	}
	return streams
}

func newServeLongChecker(k int, witnessMode bool) *checker.Checker {
	chk := checker.New(k)
	if witnessMode {
		chk.EnableWitness()
	}
	chk.SetParams(serveLongParams)
	return chk
}

// witnessCorpusGolden is the sha256 of every cycle rejection of
// TestWitnessCorpusGolden. It pins the witness output byte for byte, so a
// change to how the cycle checker stores contraction chains cannot change
// what a rejection reports.
const witnessCorpusGolden = "7e38bbcbf45470069616cdc88052723c26f45affc843edc7d0570a6a32ad75da"

// TestWitnessCorpusGolden probes the serve-long streams for cycles: at every
// 1000th symbol it clones the witness-mode checker once per ordered pair of
// IDs and appends an unlabeled edge between them. The rejections must hash
// to the golden, include truncated chains, and agree with descriptor.Decode,
// the unbounded reference: every two consecutive concrete hops of a cycle
// are an edge of the decoded graph of the hop's label kind.
func TestWitnessCorpusGolden(t *testing.T) {
	h := sha256.New()
	rejections, elided, longest := 0, 0, 0
	for i, s := range serveLongStreams(t) {
		chk, tr := newServeLongChecker(s.k, true), descriptor.NewTracker()
		for j, sym := range s.syms {
			if err := chk.Step(sym); err != nil {
				t.Fatalf("stream %d symbol %d: %v", i, j, err)
			}
			tr.Apply(sym)
			cut := j + 1
			if cut%1000 != 0 {
				continue
			}
			d := descriptor.Decode(s.syms[:cut])
			edges := make(map[descriptor.DecodedEdge]bool, len(d.Edges))
			for _, e := range d.Edges {
				edges[e] = true
			}
			for a := 1; a <= s.k+1; a++ {
				for b := 1; b <= s.k+1; b++ {
					e := descriptor.Edge{From: a, To: b}
					var re *checker.RejectError
					if !errors.As(chk.Clone().Step(e), &re) || re.Constraint != checker.ConstraintCycle {
						continue
					}
					rejections++
					fmt.Fprintf(h, "%d %d %d %d %q %q\n", i, cut, re.SymbolIndex, re.CycleLen(), re.Cycle.String(), re.Msg)
					if re.CycleLen() < len(re.Cycle.Hops) {
						elided++
					}
					longest = max(longest, re.CycleLen())
					from, _ := tr.Owner(a)
					to, _ := tr.Owner(b)
					closing := descriptor.DecodedEdge{From: from, To: to, Kind: e.Label.Kind()}
					checkCycleAgainstDecode(t, d, edges, closing, re)
				}
			}
		}
	}
	t.Logf("%d cycle rejections, %d with an elision marker, longest %d nodes", rejections, elided, longest)
	if elided == 0 {
		t.Error("no rejection carries an elision marker: the corpus no longer reaches truncated chains")
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != witnessCorpusGolden {
		t.Errorf("witness corpus hash = %s, want %s", got, witnessCorpusGolden)
	}
}

// checkCycleAgainstDecode checks every pair of consecutive concrete hops of
// the rejection's cycle (cyclically; pairs next to an elision marker are
// skipped) against the decoded prefix plus the closing edge, and each
// concrete hop's operation against the decoded node label.
func checkCycleAgainstDecode(t *testing.T, d descriptor.Decoded, edges map[descriptor.DecodedEdge]bool, closing descriptor.DecodedEdge, re *checker.RejectError) {
	t.Helper()
	hops := re.Cycle.Hops
	for i, h := range hops {
		if h.Node.Seq < 0 {
			continue
		}
		if h.Node.Seq >= len(d.Labels) || h.Node.Op == nil || d.Labels[h.Node.Seq] == nil || *h.Node.Op != *d.Labels[h.Node.Seq] {
			t.Fatalf("symbol %d: hop %d names %v, not a decoded node", re.SymbolIndex, i, h.Node)
		}
		next := hops[(i+1)%len(hops)].Node
		if next.Seq < 0 {
			continue
		}
		e := descriptor.DecodedEdge{From: h.Node.Seq, To: next.Seq, Kind: h.Label.Kind()}
		if e != closing && !edges[e] {
			t.Fatalf("symbol %d: hop %d: %v ─%s→ %v is not a decoded edge\ncycle: %s", re.SymbolIndex, i, h.Node, h.Label, next, re.Cycle)
		}
	}
}

// TestWitnessStepAllocBytes bounds what witness mode costs in allocation:
// over the serve-long streams it may allocate at most 224 bytes per
// symbol, 4× what plain mode allocated while the checker still held its
// records as pointer graphs (plain mode now allocates about 1 byte per
// symbol, so a ratio to it no longer bounds anything). Copying contraction
// chains that are already truncated allocates ≈1.5 KB per symbol.
func TestWitnessStepAllocBytes(t *testing.T) {
	streams := serveLongStreams(t)
	symbols := 0
	for _, s := range streams {
		symbols += len(s.syms)
	}
	stepBytes := func(witnessMode bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, s := range streams {
			chk := newServeLongChecker(s.k, witnessMode)
			for j, sym := range s.syms {
				if err := chk.Step(sym); err != nil {
					t.Fatalf("stream %d symbol %d: %v", i, j, err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, wit := stepBytes(false), stepBytes(true)
	t.Logf("plain %d B, witness %d B (%.1f B/symbol)", plain, wit, float64(wit)/float64(symbols))
	if wit > uint64(224*symbols) {
		t.Errorf("witness-mode Step allocated %d B, more than 224 B per symbol over %d symbols", wit, symbols)
	}
}

// TestStepAllocationFree pins that plain-mode Step, New included, makes no
// steady-state allocation: records, obligations and lists live in arenas
// that reuse reclaimed slots, and the per-processor and per-block maps
// stay small.
func TestStepAllocationFree(t *testing.T) {
	streams := serveLongStreams(t)
	symbols := 0
	for _, s := range streams {
		symbols += len(s.syms)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, s := range streams {
			chk := newServeLongChecker(s.k, false)
			for _, sym := range s.syms {
				if err := chk.Step(sym); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	t.Logf("%.0f allocations over %d symbols (%.4f per symbol)", allocs, symbols, allocs/float64(symbols))
	if allocs > 0.01*float64(symbols) {
		t.Errorf("plain Step made %.0f allocations over %d symbols, more than 0.01 per symbol", allocs, symbols)
	}
}

// TestCloneAllocsBounded pins that Clone is a fixed number of slice and
// map copies: at every 1024-symbol checkpoint of the serve-long streams in
// plain mode it makes at most 24 allocations, however many records the
// state holds.
func TestCloneAllocsBounded(t *testing.T) {
	worst := 0.0
	for i, s := range serveLongStreams(t) {
		chk := newServeLongChecker(s.k, false)
		for j, sym := range s.syms {
			if err := chk.Step(sym); err != nil {
				t.Fatal(err)
			}
			if (j+1)%1024 != 0 {
				continue
			}
			allocs := testing.AllocsPerRun(5, func() { _ = chk.Clone() })
			worst = max(worst, allocs)
			if allocs > 24 {
				t.Fatalf("stream %d symbol %d: Clone made %.0f allocations, want at most 24", i, j+1, allocs)
			}
		}
	}
	t.Logf("at most %.0f allocations per Clone", worst)
}

// BenchmarkStep times Checker.Step per symbol over the serve-long streams,
// in plain and in witness mode (scserve's).
func BenchmarkStep(b *testing.B) {
	streams := serveLongStreams(b)
	symbols := 0
	for _, s := range streams {
		symbols += len(s.syms)
	}
	for _, witnessMode := range []bool{false, true} {
		name := "plain"
		if witnessMode {
			name = "witness"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range streams {
					chk := newServeLongChecker(s.k, witnessMode)
					for _, sym := range s.syms {
						if err := chk.Step(sym); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*symbols), "ns/symbol")
		})
	}
}

// BenchmarkCloneCheckpoint times Checker.Clone on the states a checker
// session holds at its 1024-symbol checkpoints over the serve-long streams,
// stepped in witness mode as scserve does.
func BenchmarkCloneCheckpoint(b *testing.B) {
	var snaps []*checker.Checker
	for _, s := range serveLongStreams(b) {
		chk := newServeLongChecker(s.k, true)
		for j, sym := range s.syms {
			if err := chk.Step(sym); err != nil {
				b.Fatal(err)
			}
			if (j+1)%1024 == 0 {
				snaps = append(snaps, chk.Clone())
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = snaps[i%len(snaps)].Clone()
	}
}

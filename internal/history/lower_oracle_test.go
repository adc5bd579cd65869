package history

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"scverify/internal/descriptor"
	"scverify/internal/graph"
	"scverify/internal/trace"
)

// lowerOracle is the Lower that direct emission replaced, kept as the
// reference it is checked against (FuzzLowerMatchesOracle,
// TestLowerMatchesOracle): it builds the annotated constraint graph as a
// graph.Graph from maps keyed by process, key and (key, value), and only
// then encodes it with descriptor.EncodeAuto.
func lowerOracle(h *History) (*Lowering, error) {
	ops, err := h.Ops(false)
	if err != nil {
		return nil, err
	}
	l := &Lowering{History: h, Ops: ops}

	// Pass 1: which (key, value) pairs did some OK read return? An
	// indeterminate write is kept iff observed.
	type keyValue struct {
		key   string
		value int64
	}
	observed := make(map[keyValue]bool)
	for _, op := range ops {
		if op.F == Read && op.Outcome == OK && op.HasValue {
			observed[keyValue{op.Key, op.Value}] = true
		}
	}

	// Pass 2: select the lowered ops and enforce write-value uniqueness.
	kept := make([]int, 0, len(ops))
	writeOf := make(map[keyValue]int) // (key, value) → ops index of its write
	for i, op := range ops {
		switch {
		case op.F == Write && op.Outcome == OK,
			op.F == Write && op.Outcome == Info && observed[keyValue{op.Key, op.Value}]:
			if j, dup := writeOf[keyValue{op.Key, op.Value}]; dup {
				return nil, errAt(op.Invoke,
					"%s duplicates the value of %s (event %d): history checking requires unique write values per key",
					op, ops[j], ops[j].Invoke)
			}
			writeOf[keyValue{op.Key, op.Value}] = i
			kept = append(kept, i)
		case op.F == Write && op.Outcome == Info:
			l.Dropped.UnobservedWrites++
		case op.F == Write: // Fail
			l.Dropped.FailedWrites++
		case op.Outcome == OK: // reads
			kept = append(kept, i)
		case op.Outcome == Fail:
			l.Dropped.FailedReads++
		default: // Info
			l.Dropped.InfoReads++
		}
	}

	// Pass 3: intern processes, keys and values densely and build the
	// trace. Interning follows first appearance in the kept sequence, so
	// the lowering is deterministic in the history alone.
	l.Keys = []string{""}
	l.Procs = []int{0}
	l.Values = []int64{0}
	blockOf := make(map[string]trace.BlockID)
	procOf := make(map[int]trace.ProcID)
	valueOf := make(map[int64]trace.Value)
	internBlock := func(key string) trace.BlockID {
		b, ok := blockOf[key]
		if !ok {
			l.Keys = append(l.Keys, key)
			b = trace.BlockID(len(l.Keys) - 1)
			blockOf[key] = b
		}
		return b
	}
	internProc := func(p int) trace.ProcID {
		pid, ok := procOf[p]
		if !ok {
			l.Procs = append(l.Procs, p)
			pid = trace.ProcID(len(l.Procs) - 1)
			procOf[p] = pid
		}
		return pid
	}
	internValue := func(v int64) trace.Value {
		val, ok := valueOf[v]
		if !ok {
			l.Values = append(l.Values, v)
			val = trace.Value(len(l.Values) - 1)
			valueOf[v] = val
		}
		return val
	}
	// Writes intern their values first so every store value is stable
	// whether or not any phantom read values interleave.
	for _, i := range kept {
		if ops[i].F == Write {
			internValue(ops[i].Value)
		}
	}
	l.Trace = make(trace.Trace, 0, len(kept))
	l.OpIndex = make([]int, 0, len(kept))
	for _, i := range kept {
		op := ops[i]
		p, b := internProc(op.Process), internBlock(op.Key)
		switch {
		case op.F == Write:
			l.Trace = append(l.Trace, trace.ST(p, b, internValue(op.Value)))
		case op.HasValue:
			l.Trace = append(l.Trace, trace.LD(p, b, internValue(op.Value)))
		default:
			l.Trace = append(l.Trace, trace.LD(p, b, trace.Bottom))
		}
		l.OpIndex = append(l.OpIndex, i)
	}
	l.Params = l.Trace.Params()

	// Pass 4: the annotated constraint graph — program order, per-key ST
	// order, value-matched inheritance, and the two forced-edge rules.
	g := graph.New(l.Trace)
	lastOfProc := make(map[trace.ProcID]int)
	lastStore := make(map[trace.BlockID]int)
	firstStore := make(map[trace.BlockID]int)
	stSucc := make(map[int]int)
	type blockValue struct {
		block trace.BlockID
		value trace.Value
	}
	storeAt := make(map[blockValue]int) // (block, value) → trace position
	for i, op := range l.Trace {
		if prev, ok := lastOfProc[op.Proc]; ok {
			g.AddEdge(prev, i, graph.ProgramOrder)
		}
		lastOfProc[op.Proc] = i
		if op.IsStore() {
			if prev, ok := lastStore[op.Block]; ok {
				g.AddEdge(prev, i, graph.StoreOrder)
				stSucc[prev] = i
			} else {
				firstStore[op.Block] = i
			}
			lastStore[op.Block] = i
			storeAt[blockValue{op.Block, op.Value}] = i
		}
	}
	for i, op := range l.Trace {
		if !op.IsLoad() {
			continue
		}
		if op.Value == trace.Bottom {
			if fs, ok := firstStore[op.Block]; ok {
				g.AddEdge(i, fs, graph.Forced) // §3.1 constraint 5(b)
			}
			continue
		}
		st, ok := storeAt[blockValue{op.Block, op.Value}]
		if !ok {
			continue // phantom read: no inheritance edge, checker rejects
		}
		g.AddEdge(st, i, graph.Inheritance)
		if succ, ok := stSucc[st]; ok {
			g.AddEdge(i, succ, graph.Forced) // §3.1 constraint 5(a)
		}
	}
	l.Stream, l.K = descriptor.EncodeAuto(g)
	return l, nil
}

// sameLowering lowers h both ways and fails unless both fail with the same
// error, or both return the same lowering: the same Stream symbol for
// symbol, the same K and Params, and the same trace and books.
func sameLowering(t *testing.T, h *History) {
	t.Helper()
	got, err := Lower(h)
	want, oerr := lowerOracle(h)
	if fmt.Sprint(err) != fmt.Sprint(oerr) {
		t.Fatalf("Lower: %v\noracle: %v", err, oerr)
	}
	if err != nil || reflect.DeepEqual(got, want) {
		return
	}
	if got.K != want.K || got.Params != want.Params {
		t.Fatalf("k=%d params=%+v, oracle k=%d params=%+v", got.K, got.Params, want.K, want.Params)
	}
	for i := range min(len(got.Stream), len(want.Stream)) {
		if !reflect.DeepEqual(got.Stream[i], want.Stream[i]) {
			t.Fatalf("symbol %d: %s, oracle %s\ntrace %s", i, got.Stream[i].Text(), want.Stream[i].Text(), got.Trace)
		}
	}
	if len(got.Stream) != len(want.Stream) {
		t.Fatalf("%d symbols, oracle %d", len(got.Stream), len(want.Stream))
	}
	t.Fatalf("lowerings differ:\n%+v\noracle:\n%+v", got, want)
}

// oracleSeedJSONL is the seed corpus of FuzzLowerMatchesOracle: the three
// example fixtures and small generated histories of every anomaly kind,
// with failed and indeterminate operations, as JSONL.
func oracleSeedJSONL(t testing.TB) [][]byte {
	var out [][]byte
	add := func(h *History) {
		var buf bytes.Buffer
		if err := h.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	for _, name := range []string{"clean.jsonl", "stale-read.jsonl", "partition.edn"} {
		add(fixture(t, name))
	}
	for _, kind := range AllAnomalies() {
		g, err := Generate(GenConfig{Processes: 2, Keys: 2, Ops: 6,
			FailEvery: 3, InfoEvery: 4, Anomalies: []AnomalyKind{kind}})
		if err != nil {
			t.Fatal(err)
		}
		add(g.History)
	}
	return out
}

// TestLowerMatchesOracle compares Lower with lowerOracle on the example
// fixtures, the hand-built rule and anomaly histories, and a generator
// campaign over every anomaly kind at several shapes.
func TestLowerMatchesOracle(t *testing.T) {
	for _, name := range []string{"clean.jsonl", "stale-read.jsonl", "partition.edn"} {
		sameLowering(t, fixture(t, name))
	}
	sameLowering(t, &History{})
	sameLowering(t, histOf(wOK(0, "x", 1), wFail(0, "x", 2), wInfo(1, "x", 3), wInfo(1, "y", 4),
		rOK(2, "x", 3), rBot(2, "y"), rOK(2, "x", 99), wOK(0, "y", 1)))
	sameLowering(t, histOf(wOK(0, "x", 1), wOK(1, "x", 1)))
	cfgs := []GenConfig{
		{Processes: 2, Keys: 1, Ops: 20},
		{Processes: 4, Keys: 3, Ops: 200},
		{Processes: 5, Keys: 4, Ops: 120, WriteRate: 0.6, MaxLag: 6},
		{Processes: 4, Keys: 2, Ops: 80, FailEvery: 5, InfoEvery: 3, OverlapRate: 0.9},
	}
	for _, cfg := range cfgs {
		for seed := int64(0); seed < 40; seed++ {
			for _, kinds := range [][]AnomalyKind{nil, AllAnomalies()} {
				cfg.Seed, cfg.Anomalies = seed, kinds
				g, err := Generate(cfg)
				if err != nil {
					t.Fatalf("Generate(%+v): %v", cfg, err)
				}
				sameLowering(t, g.History)
			}
		}
	}
}

// FuzzLowerMatchesOracle fuzzes raw JSONL, so that malformed, unpaired and
// duplicate-value histories reach the lowering too: on every history that
// parses, Lower and lowerOracle must agree (see sameLowering).
func FuzzLowerMatchesOracle(f *testing.F) {
	for _, s := range oracleSeedJSONL(f) {
		f.Add(s)
	}
	for _, s := range fuzzSeedJSONL {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseJSONL(bytes.NewReader(data))
		if err != nil || len(h.Events) > 2000 {
			return
		}
		sameLowering(t, h)
	})
}

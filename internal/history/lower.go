package history

import (
	"fmt"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/graph"
	"scverify/internal/trace"
)

// Lowering is a well-formed history mapped onto the paper's machinery:
// the memory-operation trace, the annotated constraint graph rendered as
// a k-graph descriptor stream, and the books needed to translate checker
// verdicts back into history vocabulary.
//
// The lowering rules (§4.4 value-matching decomposition over unique write
// values):
//
//	history operation            trace op        synthesized tracking labels
//	----------------------------------------------------------------------
//	write k:=v, ok               ST(P,B,v)       ST-order edge from the key's
//	                                             previous effective write
//	                                             (per-key invocation order)
//	write k:=v, fail             (dropped)       definitely did not happen
//	write k:=v, info, observed   ST(P,B,v)       as an ok write: some read
//	                                             returned v, so it happened
//	write k:=v, info, unobserved (dropped)       sound: an unobserved write
//	                                             can be appended at the end
//	                                             of any serial order
//	read k=v, ok                 LD(P,B,v)       inheritance edge from the
//	                                             unique write of v to k, and
//	                                             the §3.1-5(a) forced edge to
//	                                             that write's ST successor
//	read k=⊥, ok (key unwritten) LD(P,B,⊥)       §3.1-5(b) forced edge to the
//	                                             key's first effective write
//	read k=v, ok, v never        LD(P,B,v)       no inheritance edge — the
//	  written ("phantom")                        checker rejects it under
//	                                             §3.1 constraint 4
//	read, fail or info           (dropped)       returned nothing observable
//
// Program-order edges link each process's consecutive lowered operations
// (processes are single-threaded, so invocation order is program order).
// ST order is synthesized per key from effective-write invocation order —
// a real-time heuristic in the spirit of the paper's ST-order generators.
// Acceptance is sound regardless of the heuristic (an acyclic constraint
// graph exhibits a serial reordering by Lemma 3.1); a rejection whose
// trace the exact search finds SC is annotation inadequacy, exactly the
// classification internal/witness already performs.
type Lowering struct {
	// History is the source history; Ops its paired logical operations.
	History *History
	Ops     []Op
	// Trace is the lowered memory-operation trace (dropped ops excluded),
	// in invocation order. OpIndex maps each trace position to its index
	// in Ops.
	Trace   trace.Trace
	OpIndex []int
	// Stream is the descriptor encoding of the annotated constraint
	// graph, and K the bandwidth bound it needs.
	Stream descriptor.Stream
	K      int
	// Params bounds the lowered trace's label ranges.
	Params trace.Params
	// Keys maps BlockID → key name and Procs maps ProcID → external
	// process id (index 0 unused in both). Values maps trace.Value →
	// external value (index 0 is ⊥).
	Keys   []string
	Procs  []int
	Values []int64

	// Dropped counts operations the lowering excluded, by rule.
	Dropped Drops
}

// Drops counts history operations excluded from the lowered trace.
type Drops struct {
	FailedWrites     int // definite no-ops
	FailedReads      int
	InfoReads        int // indeterminate reads return nothing observable
	UnobservedWrites int // indeterminate writes no read ever returned
}

// Total sums the dropped operations.
func (d Drops) Total() int {
	return d.FailedWrites + d.FailedReads + d.InfoReads + d.UnobservedWrites
}

// Lower validates the history (non-strict pairing: dangling invocations
// are indeterminate) and builds its Lowering. Errors are *FormatError
// values: pairing violations, or a violation of the unique-write-value
// discipline the value-matching decomposition needs.
func Lower(h *History) (*Lowering, error) {
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

// Check streams the lowered descriptor through a fresh checker and
// returns nil on acceptance or the checker's typed *checker.RejectError.
func (l *Lowering) Check() error {
	c := checker.New(l.K)
	if l.Params.Procs > 0 {
		c.SetParams(l.Params)
	}
	for _, sym := range l.Stream {
		if err := c.Step(sym); err != nil {
			return err
		}
	}
	return c.Finish()
}

// Check is the one-call adjudication: lower the history and run the
// checker. A *FormatError means the history (not its consistency) is the
// problem; a *checker.RejectError is a rejection; nil is acceptance.
func Check(h *History) error {
	l, err := Lower(h)
	if err != nil {
		return err
	}
	return l.Check()
}

// Describe renders the operation behind trace position i (of the full
// lowered trace) in history vocabulary.
func (l *Lowering) Describe(i int) string {
	if i < 0 || i >= len(l.OpIndex) {
		return ""
	}
	op := l.Ops[l.OpIndex[i]]
	s := op.String()
	if op.F == Write && op.Outcome == Info {
		s += " (indeterminate, observed)"
	}
	if op.Return >= 0 {
		s += fmt.Sprintf(" [events %d,%d]", op.Invoke, op.Return)
	} else {
		s += fmt.Sprintf(" [event %d]", op.Invoke)
	}
	return s
}

// Summary renders a one-line account of the lowering for CLI output.
func (l *Lowering) Summary() string {
	return fmt.Sprintf("%d events, %d ops (%d lowered, %d dropped) over %d processes × %d keys → %d symbols, k=%d",
		len(l.History.Events), len(l.Ops), len(l.Trace), l.Dropped.Total(),
		len(l.Procs)-1, len(l.Keys)-1, len(l.Stream), l.K)
}

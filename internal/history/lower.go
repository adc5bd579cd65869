package history

import (
	"fmt"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
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
	writeOf := make(map[keyValue]int32) // (key, value) → trace position of its write
	for i, op := range ops {
		switch {
		case op.F == Write && op.Outcome == OK,
			op.F == Write && op.Outcome == Info && observed[keyValue{op.Key, op.Value}]:
			if j, dup := writeOf[keyValue{op.Key, op.Value}]; dup {
				first := ops[kept[j]]
				return nil, errAt(op.Invoke,
					"%s duplicates the value of %s (event %d): history checking requires unique write values per key",
					op, first, first.Invoke)
			}
			writeOf[keyValue{op.Key, op.Value}] = int32(len(kept))
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

	// Pass 3: intern processes, keys and values densely, build the trace,
	// and lay out the annotated constraint graph as it goes: program order,
	// per-key ST order, value-matched inheritance and the two forced-edge
	// rules, each edge at its later end. An edge whose later end is still
	// ahead waits in a book: each store, and each key's initial value ⊥,
	// has one holding its ST successor and the loads that read it before
	// that successor, linked through next. Interning follows first
	// appearance in the kept sequence, so the lowering is deterministic in
	// the history alone.
	type book struct{ succ, head, tail int32 }
	n := int32(len(kept))
	books := make([]book, n) // per store position; each key's ⊥ book follows
	next := make([]int32, n) // a waiting load's successor in its book
	for i := range books {
		books[i] = book{-1, -1, -1}
	}
	lastOf := []int32{-1}    // per process: its latest position
	lastStore := []int32{-1} // per key: the book of its latest store, or its ⊥ book
	l.Keys, l.Procs, l.Values = []string{""}, []int{0}, []int64{0}
	blockOf, procOf, valueOf := map[string]int{}, map[int]int{}, map[int64]int{}
	// Writes intern their values first so every store value is stable
	// whether or not any phantom read values interleave.
	for _, i := range kept {
		if ops[i].F == Write {
			intern(valueOf, &l.Values, ops[i].Value)
		}
	}
	l.Trace = make(trace.Trace, 0, n)
	l.OpIndex = kept
	adj := descriptor.NewAdjacency(len(kept))
	for i, oi := range kept {
		op, pos := ops[oi], int32(i)
		p := trace.ProcID(intern(procOf, &l.Procs, op.Process))
		b := trace.BlockID(intern(blockOf, &l.Keys, op.Key))
		if int(p) == len(lastOf) {
			lastOf = append(lastOf, -1)
		}
		if int(b) == len(lastStore) {
			lastStore = append(lastStore, int32(len(books)))
			books = append(books, book{-1, -1, -1})
		}
		lowered := trace.LD(p, b, trace.Bottom)
		switch {
		case op.F == Write:
			lowered = trace.ST(p, b, trace.Value(intern(valueOf, &l.Values, op.Value)))
		case op.HasValue:
			lowered = trace.LD(p, b, trace.Value(intern(valueOf, &l.Values, op.Value)))
		}
		l.Trace = append(l.Trace, lowered)
		adj.AddNode(lowered)
		if prev := lastOf[p]; prev >= 0 {
			adj.AddEdge(int(prev), i, descriptor.PO)
		}
		lastOf[p] = pos
		if op.F == Write {
			prev := lastStore[b]
			if prev < n {
				adj.AddEdge(int(prev), i, descriptor.STo)
			}
			books[prev].succ = pos
			for j := books[prev].head; j >= 0; j = next[j] {
				adj.AddEdge(int(j), i, descriptor.Forced) // §3.1 constraint 5(a), or 5(b) after ⊥
			}
			for j := books[i].head; j >= 0; j = next[j] {
				adj.AddEdge(i, int(j), descriptor.Inh) // reads lowered before their write
			}
			lastStore[b] = pos
			continue
		}
		src := n + int32(b) - 1 // a ⊥ read waits on its key's ⊥ book
		if op.HasValue {
			var ok bool
			if src, ok = writeOf[keyValue{op.Key, op.Value}]; !ok {
				continue // phantom read: no inheritance edge, checker rejects
			}
		}
		if src < pos {
			adj.AddEdge(int(src), i, descriptor.Inh)
		}
		bk := &books[src]
		if bk.succ >= 0 {
			adj.AddEdge(i, int(bk.succ), descriptor.Forced)
			continue
		}
		if next[i] = -1; bk.head < 0 {
			bk.head = pos
		} else {
			next[bk.tail] = pos
		}
		bk.tail = pos
	}
	l.Params = l.Trace.Params()
	l.Stream, l.K = adj.Encode()
	return l, nil
}

// intern returns v's dense index in names, appending it on first sight.
func intern[V comparable](index map[V]int, names *[]V, v V) int {
	i, ok := index[v]
	if !ok {
		*names = append(*names, v)
		i = len(*names) - 1
		index[v] = i
	}
	return i
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

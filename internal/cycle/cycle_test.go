package cycle

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scverify/internal/descriptor"
	"scverify/internal/graph"
	"scverify/internal/trace"
)

func node(id int) descriptor.Node                        { return descriptor.Node{ID: id} }
func edge(from, to int) descriptor.Edge                  { return descriptor.Edge{From: from, To: to} }
func addID(ex, nw int) descriptor.AddID                  { return descriptor.AddID{Existing: ex, New: nw} }
func stream(syms ...descriptor.Symbol) descriptor.Stream { return descriptor.Stream(syms) }

func TestAcceptsChain(t *testing.T) {
	s := stream(node(1), node(2), edge(1, 2), node(1), edge(2, 1))
	if err := CheckStream(s, 2); err != nil {
		t.Errorf("chain rejected: %v", err)
	}
}

func TestRejectsTwoCycle(t *testing.T) {
	s := stream(node(1), node(2), edge(1, 2), edge(2, 1))
	if err := CheckStream(s, 2); err == nil {
		t.Error("2-cycle accepted")
	}
}

func TestRejectsSelfLoop(t *testing.T) {
	s := stream(node(1), edge(1, 1))
	if err := CheckStream(s, 2); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestRejectsSelfLoopViaAlias(t *testing.T) {
	s := stream(node(1), addID(1, 2), edge(1, 2))
	if err := CheckStream(s, 2); err == nil {
		t.Error("aliased self-loop accepted")
	}
}

func TestContractionPreservesCycles(t *testing.T) {
	// Build 1 -> 2 -> 3, recycle node 2's ID (contracting 1 -> 3), then add
	// the back edge 3 -> 1: must reject even though node 2 is gone.
	s := stream(
		node(1), node(2), node(3),
		edge(1, 2), edge(2, 3),
		node(2), // recycles ID 2; contraction adds 1 -> 3
		edge(3, 1),
	)
	if err := CheckStream(s, 3); err == nil {
		t.Error("cycle through contracted node accepted")
	}
}

func TestContractionChainDeep(t *testing.T) {
	// A long path whose middle is repeatedly contracted, then closed.
	k := 2
	c := New(k)
	must := func(sym descriptor.Symbol) {
		t.Helper()
		if err := c.Step(sym); err != nil {
			t.Fatalf("unexpected reject: %v", err)
		}
	}
	must(node(1))
	must(node(2))
	must(edge(1, 2))
	for i := 0; i < 20; i++ {
		// Extend the path using ID 3, retiring ID 2's node each round.
		must(node(3))
		must(edge(2, 3))
		must(addID(3, 2)) // node formerly ID 3 now holds {3,2}... then reuse 3
		must(node(3))
		must(edge(2, 3))
		must(addID(3, 2))
	}
	// Close the cycle back to the head (ID 1 still live).
	if err := c.Step(edge(2, 1)); err == nil {
		t.Error("long contracted cycle accepted")
	}
}

func TestUnboundEdgeIgnored(t *testing.T) {
	s := stream(node(1), edge(1, 3), edge(3, 1))
	if err := CheckStream(s, 3); err != nil {
		t.Errorf("unbound edges should denote nothing: %v", err)
	}
}

func TestRejectSticky(t *testing.T) {
	c := New(2)
	if err := c.Step(edge(9, 9)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := c.Step(node(1)); err == nil {
		t.Error("checker should stay rejected")
	}
	if c.Err() == nil {
		t.Error("Err() should report rejection")
	}
}

func TestIDRangeEnforced(t *testing.T) {
	if err := CheckStream(stream(node(4)), 2); err == nil {
		t.Error("node ID beyond k+1 accepted")
	}
	if err := CheckStream(stream(node(1), addID(1, 4)), 2); err == nil {
		t.Error("add-ID beyond k+1 accepted")
	}
}

func TestAddIDSelfNoop(t *testing.T) {
	c := New(2)
	_ = c.Step(node(1))
	if err := c.Step(addID(1, 1)); err != nil {
		t.Fatalf("self add-ID rejected: %v", err)
	}
	if c.Active() != 1 {
		t.Errorf("active = %d, want 1", c.Active())
	}
}

func TestAddIDDisplacementContracts(t *testing.T) {
	// Node A(1), node B(2), edge A->B; then alias ID 2 onto A: node B loses
	// its last ID and is contracted away. Active graph should hold A only.
	c := New(2)
	for _, sym := range stream(node(1), node(2), edge(1, 2), addID(1, 2)) {
		if err := c.Step(sym); err != nil {
			t.Fatalf("reject: %v", err)
		}
	}
	if c.Active() != 1 {
		t.Errorf("active = %d, want 1", c.Active())
	}
}

func TestFigure3StreamAccepted(t *testing.T) {
	op := func(o trace.Op) *trace.Op { return &o }
	s := descriptor.Stream{
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
	c := New(3)
	if err := c.Check(s); err != nil {
		t.Errorf("Figure 3 descriptor rejected: %v", err)
	}
	if c.Stats().MaxActive > 4 {
		t.Errorf("active graph grew to %d nodes, bound is k+1=4", c.Stats().MaxActive)
	}
}

// randomStream emits a random but ID-range-respecting symbol stream and is
// the workhorse of the differential property test below.
func randomStream(rng *rand.Rand, k, n int) descriptor.Stream {
	s := make(descriptor.Stream, 0, n)
	bound := map[int]bool{}
	for i := 0; i < n; i++ {
		id := func() int { return 1 + rng.Intn(k+1) }
		switch rng.Intn(4) {
		case 0, 1:
			v := id()
			s = append(s, descriptor.Node{ID: v})
			bound[v] = true
		case 2:
			if len(bound) == 0 {
				continue
			}
			s = append(s, descriptor.Edge{From: id(), To: id()})
		default:
			s = append(s, descriptor.AddID{Existing: id(), New: id()})
		}
	}
	return s
}

func TestDifferentialAgainstDecoderProperty(t *testing.T) {
	// Lemma 3.3 property: the finite-state checker accepts exactly the
	// streams whose decoded (full, unbounded) graph is acyclic. The decoder
	// keeps everything; the checker keeps at most k+1 nodes.
	rng := rand.New(rand.NewSource(9))
	k := 4
	prop := func(_ uint8) bool {
		s := randomStream(rng, k, 30)
		want := descriptor.Decode(s).IsAcyclic()
		got := CheckStream(s, k) == nil
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialOnEncodedDAGs(t *testing.T) {
	// Every encoded DAG must be accepted; the same stream with one edge
	// reversed into a cycle must be rejected by both implementations alike.
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50; i++ {
		n := 3 + rng.Intn(10)
		tr := make(trace.Trace, n)
		for j := range tr {
			tr[j] = trace.ST(1, 1, 1)
		}
		g := graph.New(tr)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(a, b, 0)
				}
			}
		}
		s, k := descriptor.EncodeAuto(g)
		if err := CheckStream(s, k); err != nil {
			t.Fatalf("encoded DAG rejected: %v", err)
		}
	}
}

func TestMaxActiveBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 5, 8} {
		c := New(k)
		for _, sym := range randomStream(rng, k, 200) {
			if c.Step(sym) != nil {
				break
			}
		}
		if c.Stats().MaxActive > k+1 {
			t.Errorf("k=%d: active graph reached %d nodes", k, c.Stats().MaxActive)
		}
	}
}

func TestStateKeyDistinguishesAndMatches(t *testing.T) {
	// Same symbol history => same key.
	a, b := New(3), New(3)
	s := stream(node(1), node(2), edge(1, 2))
	for _, sym := range s {
		_ = a.Step(sym)
		_ = b.Step(sym)
	}
	if string(a.StateKey()) != string(b.StateKey()) {
		t.Error("identical histories produced different keys")
	}
	// Different edge direction => different key.
	cck := New(3)
	for _, sym := range stream(node(1), node(2), edge(2, 1)) {
		_ = cck.Step(sym)
	}
	if string(a.StateKey()) == string(cck.StateKey()) {
		t.Error("different graphs share a key")
	}
	// Rejected checker has the distinguished key.
	r := New(3)
	_ = r.Step(edge(1, 1))
	_ = r.Step(node(9))
	if string(r.StateKey()) != "\xff" {
		t.Errorf("rejected key = %v", r.StateKey())
	}
}

func TestStateKeyCanonicalAcrossHandleHistories(t *testing.T) {
	// Two different symbol histories arriving at the same abstract state —
	// nodes {1} and {2} with no edges — must share a key, even though the
	// internal node handles differ.
	a := New(2)
	for _, sym := range stream(node(1), node(2)) {
		_ = a.Step(sym)
	}
	b := New(2)
	for _, sym := range stream(node(2), node(1), node(2)) {
		// First {2} node is displaced and contracted away by the third
		// symbol, leaving {1} and a fresh {2}.
		_ = b.Step(sym)
	}
	if string(a.StateKey()) != string(b.StateKey()) {
		t.Errorf("equal abstract states produced different keys:\n a=%v\n b=%v",
			a.StateKey(), b.StateKey())
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(2)
	s := stream(node(1), node(2), edge(1, 2), node(1))
	for _, sym := range s {
		if err := c.Step(sym); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Symbols != 4 || st.Edges != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWitnessTruncatesLongChains(t *testing.T) {
	// Node A (ID 1) and a path A → x1 → … → x100 whose nodes alternate IDs
	// 2 and 3: each new node takes the ID of the one two back, contracting
	// it into the edge from A. Aliasing ID 2 onto x100 contracts x99, which
	// leaves the single edge A → x100 with x1…x99 in its chain, truncated
	// to x1…x64 and the elision marker. The back edge x100 → A closes it.
	const m = 100
	c := New(2).EnableWitness()
	syms := stream(node(1), node(2), edge(1, 2))
	ids := [2]int{2, 3} // x_i holds ids[(i-1)%2]
	for i := 2; i <= m; i++ {
		syms = append(syms, node(ids[(i-1)%2]), edge(ids[i%2], ids[(i-1)%2]))
	}
	syms = append(syms, addID(ids[(m-1)%2], ids[m%2]))
	for _, sym := range syms {
		if err := c.Step(sym); err != nil {
			t.Fatalf("%s: %v", sym.Text(), err)
		}
	}
	if got := c.Active(); got != 2 {
		t.Fatalf("active = %d, want 2 (A and x%d)", got, m)
	}
	var ce *CycleError
	if !errors.As(c.Step(edge(ids[(m-1)%2], 1)), &ce) {
		t.Fatalf("back edge: got %v, want a CycleError", c.Err())
	}
	if len(ce.Hops) != maxVia+3 {
		t.Fatalf("len(Hops) = %d, want %d: %s", len(ce.Hops), maxVia+3, ce)
	}
	if got := ce.Len(); got != maxVia+2 {
		t.Errorf("Len() = %d, want %d", got, maxVia+2)
	}
	// Node Seq is creation order: A is 0 and x_i is i.
	var seqs []int
	for i, h := range ce.Hops {
		if h.Node.Seq < 0 {
			if i != maxVia+1 {
				t.Errorf("elision marker at hop %d, want only at %d", i, maxVia+1)
			}
			continue
		}
		seqs = append(seqs, h.Node.Seq)
	}
	want := []int{0}
	for i := 1; i <= maxVia; i++ {
		want = append(want, i)
	}
	want = append(want, m)
	if fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Errorf("concrete hops = %v, want %v", seqs, want)
	}
}

func TestWitnessBookkeepingOnlyOnLiveEdges(t *testing.T) {
	// Streams as in TestDifferentialOnEncodedDAGs, with labelled edges so
	// that lab entries are nonzero: after every Step, lab and via may hold
	// entries only where an adjacency bit is set (clearWitness relies on
	// it).
	kinds := []graph.EdgeKind{graph.Inheritance, graph.ProgramOrder, graph.StoreOrder, graph.Forced, graph.ProgramOrder | graph.StoreOrder}
	rng := rand.New(rand.NewSource(12))
	contractions := 0
	for i := 0; i < 50; i++ {
		n := 3 + rng.Intn(30)
		tr := make(trace.Trace, n)
		for j := range tr {
			tr[j] = trace.ST(1, 1, 1)
		}
		g := graph.New(tr)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(a, b, kinds[rng.Intn(len(kinds))])
				}
			}
		}
		s, k := descriptor.EncodeAuto(g)
		c := New(k).EnableWitness()
		for j, sym := range s {
			if err := c.Step(sym); err != nil {
				t.Fatalf("DAG %d: encoded DAG rejected: %v", i, err)
			}
			for f := 0; f < c.n; f++ {
				for to := 0; to < c.n; to++ {
					key := c.edgeKey(f, to)
					_, hasVia := c.via[key]
					if c.row(f)[to>>6]&(1<<(to&63)) == 0 && (c.lab[key] != 0 || hasVia) {
						t.Fatalf("DAG %d symbol %d: absent edge %d→%d keeps lab %d, via %v",
							i, j, f, to, c.lab[key], hasVia)
					}
				}
			}
		}
		contractions += c.stats.Contractions
	}
	if contractions == 0 {
		t.Error("no stream contracted a node")
	}
}

func TestStateKeyWideIDs(t *testing.T) {
	// At k = 300, IDs 1 and 257 share their low byte. With one byte per
	// representative, nodes {1} and {257} with the edge 1→257 had the key
	// of the same nodes with the edge 257→1, although a further edge 1→257
	// closes a cycle only in the second.
	a, b := New(300), New(300)
	for _, sym := range stream(node(1), node(257), edge(1, 257)) {
		_ = a.Step(sym)
	}
	for _, sym := range stream(node(1), node(257), edge(257, 1)) {
		_ = b.Step(sym)
	}
	if string(a.StateKey()) == string(b.StateKey()) {
		t.Error("opposite edges between IDs 1 and 257 share a key")
	}
	if a.Step(edge(1, 257)) != nil || b.Step(edge(1, 257)) == nil {
		t.Fatal("the edge 1→257 must close a cycle in the second state only")
	}
	// One byte per representative while the IDs fit in one, two beyond.
	for k, want := range map[int]int{254: 255, 255: 2 * 256, 300: 2 * 301} {
		if got := len(New(k).StateKey()); got != want {
			t.Errorf("k=%d: empty key is %d bytes, want %d", k, got, want)
		}
	}
}

// wideStream returns a stream that first binds all of the IDs 1..k+1 and
// then keeps most of them bound: node symbols recycle IDs (contracting
// their holders), add-ID symbols alias them, and edges run from older to
// newer nodes, so the graph stays acyclic. Arbitrary edges follow, which
// soon close a cycle.
func wideStream(rng *rand.Rand, k, acyclic, arbitrary int) descriptor.Stream {
	rank := make([]int, k+2) // creation rank of each ID's holder; 0 when unbound
	var s descriptor.Stream
	bind := func(id int) {
		rank[id] = len(s) + 1
		s = append(s, descriptor.Node{ID: id})
	}
	for _, id := range rng.Perm(k + 1) {
		bind(id + 1)
	}
	label := func() descriptor.EdgeLabel { return descriptor.EdgeLabel(rng.Intn(8)) }
	for len(s) < acyclic {
		a, b := 1+rng.Intn(k+1), 1+rng.Intn(k+1)
		switch r := rng.Intn(20); {
		case r < 12 && rank[a] != 0 && rank[b] != 0 && rank[a] != rank[b]:
			if rank[a] > rank[b] {
				a, b = b, a
			}
			s = append(s, descriptor.Edge{From: a, To: b, Label: label()})
		case r < 19:
			bind(a)
		default:
			s = append(s, descriptor.AddID{Existing: a, New: b})
			rank[b] = rank[a]
		}
	}
	for i := 0; i < arbitrary; i++ {
		s = append(s, descriptor.Edge{From: 1 + rng.Intn(k+1), To: 1 + rng.Intn(k+1), Label: label()})
	}
	return s
}

func TestBitRowsAcrossWordBoundary(t *testing.T) {
	// Adjacency rows of one, two and three words, with more than 64 nodes
	// active at once from k = 64 on: plain and witness mode must reject
	// exactly at the first symbol whose prefix decodes to a cyclic graph,
	// and every hop of a witness must be an edge of that decoded prefix.
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{62, 63, 64, 65, 130} {
		rejections, maxActive := 0, 0
		for i := 0; i < 12; i++ {
			s := wideStream(rng, k, 1000+rng.Intn(2000), 40*(i%2))
			at := -1
			for _, witness := range []bool{false, true} {
				c := New(k)
				if witness {
					c.EnableWitness()
				}
				var err error
				j := 0
				for ; j < len(s) && err == nil; j++ {
					err = c.Step(s[j])
				}
				maxActive = max(maxActive, c.Stats().MaxActive)
				if err == nil {
					if !descriptor.Decode(s).IsAcyclic() {
						t.Fatalf("k=%d stream %d witness=%v: cyclic stream accepted", k, i, witness)
					}
					continue
				}
				if !witness {
					at = j - 1
					rejections++
				} else if j-1 != at {
					t.Fatalf("k=%d stream %d: witness mode rejects at symbol %d, plain mode at %d", k, i, j-1, at)
				}
				d := descriptor.Decode(s[:j])
				if d.IsAcyclic() || !descriptor.Decode(s[:j-1]).IsAcyclic() {
					t.Fatalf("k=%d stream %d witness=%v: rejected at symbol %d, not where the decoded graph turns cyclic: %v", k, i, witness, j-1, err)
				}
				var ce *CycleError
				if !errors.As(err, &ce) {
					t.Fatalf("k=%d stream %d: rejection %v is not a CycleError", k, i, err)
				}
				if witness {
					checkHops(t, d, ce)
				}
			}
		}
		t.Logf("k=%d: %d of 12 streams rejected, up to %d nodes active", k, rejections, maxActive)
		if rejections == 0 || k >= 64 && maxActive <= 64 {
			t.Errorf("k=%d: %d rejections, at most %d nodes active", k, rejections, maxActive)
		}
	}
}

// checkHops checks that consecutive concrete hops of the witness cycle,
// cyclically, are edges of the decoded graph of the hop's label kind.
func checkHops(t *testing.T, d descriptor.Decoded, ce *CycleError) {
	t.Helper()
	edges := make(map[descriptor.DecodedEdge]bool, len(d.Edges))
	for _, e := range d.Edges {
		edges[e] = true
	}
	if ce.Len() == 0 {
		t.Fatalf("witness-mode rejection without hops: %v", ce)
	}
	for i, h := range ce.Hops {
		next := ce.Hops[(i+1)%len(ce.Hops)].Node
		if h.Node.Seq < 0 || next.Seq < 0 {
			continue
		}
		if e := (descriptor.DecodedEdge{From: h.Node.Seq, To: next.Seq, Kind: h.Label.Kind()}); !edges[e] {
			t.Fatalf("hop %d: %v ─%s→ %v is not a decoded edge\ncycle: %s", i, h.Node, h.Label, next, ce)
		}
	}
}

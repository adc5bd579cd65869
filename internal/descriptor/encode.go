package descriptor

import (
	"fmt"

	"scverify/internal/graph"
	"scverify/internal/trace"
)

// Adjacency is a graph laid out the way the encoder of Lemma 3.2 reads it:
// its nodes in trace order, each with its edges to earlier nodes. AddNode
// opens the next node and AddEdge records an edge between it and an
// earlier one, so a caller that knows every node's edges to the past
// builds the layout in one left-to-right pass, with no graph to sort. The
// zero value is an empty adjacency.
type Adjacency struct {
	ops   trace.Trace
	start []int32 // node i's edges are edges[start[i]:start[i+1]]
	edges []backEdge
}

// backEdge joins a node to the earlier node other: node → other when out
// is set, other → node otherwise.
type backEdge struct {
	other int32
	out   bool
	kind  graph.EdgeKind
}

// before orders a node's edges as the encoder emits them: those from
// earlier nodes, then those to earlier nodes, each by the earlier node.
func (e backEdge) before(f backEdge) bool {
	if e.out != f.out {
		return f.out
	}
	return e.other < f.other
}

// NewAdjacency returns an empty adjacency with room for the given number
// of nodes.
func NewAdjacency(nodes int) *Adjacency {
	return &Adjacency{
		ops:   make(trace.Trace, 0, nodes),
		start: make([]int32, 0, nodes),
		edges: make([]backEdge, 0, 2*nodes),
	}
}

// AddNode opens the next node, labelled with op.
func (a *Adjacency) AddNode(op trace.Op) {
	a.ops = append(a.ops, op)
	a.start = append(a.start, int32(len(a.edges)))
}

// AddEdge adds the annotations the label denotes to the edge (from, to),
// creating it if absent. One endpoint must be the newest node and the
// other an earlier one, or AddEdge panics; a node's edges may arrive in
// any order.
func (a *Adjacency) AddEdge(from, to int, label EdgeLabel) {
	a.addEdge(from, to, label.Kind())
}

func (a *Adjacency) addEdge(from, to int, kind graph.EdgeKind) {
	node := len(a.ops) - 1
	if max(from, to) != node || min(from, to) < 0 || from == to {
		panic(fmt.Sprintf("descriptor: edge (%d,%d) does not join node %d to an earlier node", from, to, node))
	}
	e := backEdge{other: int32(min(from, to)), out: from > to, kind: kind}
	base, i := int(a.start[node]), len(a.edges)
	for i > base && e.before(a.edges[i-1]) {
		i--
	}
	if i > base && !a.edges[i-1].before(e) {
		a.edges[i-1].kind |= kind
		return
	}
	a.edges = append(a.edges, backEdge{})
	copy(a.edges[i+1:], a.edges[i:])
	a.edges[i] = e
}

func (a *Adjacency) edgesOf(i int) []backEdge {
	if i+1 < len(a.start) {
		return a.edges[a.start[i]:a.start[i+1]]
	}
	return a.edges[a.start[i]:]
}

// Encode returns the k-graph descriptor of Lemma 3.2 for the graph and the
// bandwidth bound it needs: the node bandwidth, or 1 for a graph with no
// edge across any cut.
func (a *Adjacency) Encode() (Stream, int) {
	s, bw := a.encode()
	return s, max(bw, 1)
}

// encode is the construction of Lemma 3.2. Each node takes the most
// recently freed ID, or the lowest never used, and is followed by its
// edges to earlier nodes, which still hold their IDs. A node's ID returns
// to the pool once the cut passes its last adjacency, so the IDs held
// after node i are the nodes live across the cut after i: their peak,
// returned with the stream, is the node bandwidth, and a pool of
// bandwidth+1 IDs never runs dry.
func (a *Adjacency) encode() (Stream, int) {
	n := len(a.ops)
	if n == 0 {
		return nil, 0
	}
	// last[j] is the node after which j's ID is freed: the last node
	// adjacent to j, or j itself when none follows it. freed[i] heads the
	// list, in node order and linked through link, of the earlier nodes
	// whose IDs are freed after node i.
	books := make([]int32, 3*n)
	last, freed, link := books[:n], books[n:2*n], books[2*n:]
	for i := range last {
		last[i], freed[i] = int32(i), -1
		for _, e := range a.edgesOf(i) {
			last[e.other] = int32(i)
		}
	}
	for j := n - 1; j >= 0; j-- {
		if r := last[j]; r > int32(j) {
			link[j], freed[r] = freed[r], int32(j)
		}
	}
	idOf := make([]int, n)
	var free []int
	used, bw := 0, 0 // IDs ever handed out; peak IDs held after a node
	out := make(Stream, 0, n+len(a.edges))
	var labels [3]EdgeLabel
	for i := range a.ops {
		id := used + 1
		if len(free) > 0 {
			id, free = free[len(free)-1], free[:len(free)-1]
		} else {
			used++
		}
		idOf[i] = id
		out = append(out, Node{ID: id, Op: &a.ops[i]})
		for _, e := range a.edgesOf(i) {
			from, to := idOf[e.other], id
			if e.out {
				from, to = to, from
			}
			for _, lbl := range appendLabels(labels[:0], e.kind) {
				out = append(out, Edge{From: from, To: to, Label: lbl})
			}
		}
		if last[i] == int32(i) {
			free = append(free, id)
		}
		for j := freed[i]; j >= 0; j = link[j] {
			free = append(free, idOf[j])
		}
		bw = max(bw, used-len(free))
	}
	return out, bw
}

// adjacencyOf lays the graph out for the encoder. Edges() lists each
// node's edges from earlier nodes before its edges to them, each by the
// earlier node, so every AddEdge appends.
func adjacencyOf(g *graph.Graph) (*Adjacency, error) {
	back := make([][]graph.Edge, g.Len())
	for _, e := range g.Edges() {
		if e.From == e.To {
			return nil, fmt.Errorf("descriptor: self-loop on node %d not encodable", e.From+1)
		}
		i := max(e.From, e.To)
		back[i] = append(back[i], e)
	}
	a := NewAdjacency(g.Len())
	for i, op := range g.Trace {
		a.AddNode(op)
		for _, e := range back[i] {
			a.addEdge(e.From, e.To, e.Kind)
		}
	}
	return a, nil
}

// Encode produces a k-graph descriptor for the constraint graph following
// the construction of Lemma 3.2: nodes are emitted in trace order, each
// taking an ID from a pool of k+1 recyclable IDs; edges between a new node
// and earlier still-active nodes are emitted immediately after the node;
// and a node's IDs return to the pool once all of its edges have been
// listed (its furthest adjacency is behind the cut).
//
// Encode fails if the graph's node bandwidth exceeds k — by Lemma 3.2, a
// bandwidth of at most k guarantees the pool never runs dry.
func Encode(g *graph.Graph, k int) (Stream, error) {
	a, err := adjacencyOf(g)
	if err != nil {
		return nil, err
	}
	s, bw := a.encode()
	if bw > k {
		return nil, fmt.Errorf("descriptor: ID pool exhausted: graph bandwidth %d exceeds k=%d", bw, k)
	}
	return s, nil
}

// EncodeAuto encodes the graph with the smallest sufficient ID pool,
// returning the stream and the bandwidth bound used (the graph's node
// bandwidth, at least 1).
func EncodeAuto(g *graph.Graph) (Stream, int) {
	a, err := adjacencyOf(g)
	if err != nil {
		// A self-loop is a caller bug, not an input condition; surface
		// loudly.
		panic(fmt.Sprintf("descriptor: EncodeAuto failed: %v", err))
	}
	return a.Encode()
}

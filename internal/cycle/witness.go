package cycle

import (
	"fmt"
	"math/bits"
	"strings"

	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// NodeRef identifies a constraint-graph node for counterexample reporting:
// its creation order in the stream, the descriptor ID it was created with,
// and its operation label. A Seq of -1 is the truncation marker used when a
// contraction chain exceeds maxVia (see Hop).
type NodeRef struct {
	Seq int // 0-based index among node symbols in the stream; -1 = elision marker
	ID  int // descriptor ID the node was created with
	Op  *trace.Op
}

// String renders the node as "[n<seq>] <op>"; elision markers render "…".
func (r NodeRef) String() string {
	if r.Seq < 0 {
		return "…"
	}
	if r.Op == nil {
		return fmt.Sprintf("[n%d]", r.Seq)
	}
	return fmt.Sprintf("[n%d] %s", r.Seq, r.Op)
}

// Hop is one step of a cycle: the node the step leaves from and the label
// of the edge toward the next hop's node (cyclically).
type Hop struct {
	Node  NodeRef
	Label descriptor.EdgeLabel
}

// CycleError is the rejection produced when an edge symbol closes a cycle
// in the active graph (Lemma 3.3). From/To are the descriptor IDs of the
// closing edge symbol. In witness mode (EnableWitness), Hops lists the full
// cycle in order — including nodes already contracted out of the active
// graph — such that Hops[i].Node reaches Hops[(i+1)%len].Node via an edge
// labeled Hops[i].Label, and the last hop is the closing edge itself.
// Without witness mode, Hops is nil and only the closing edge is known.
type CycleError struct {
	From, To int // descriptor IDs of the closing edge symbol
	Hops     []Hop
	Msg      string
}

// Error returns the rejection message.
func (e *CycleError) Error() string { return e.Msg }

// Len returns the number of concrete nodes on the cycle (elision markers
// excluded), or 0 when the cycle was not extracted (witness mode off).
func (e *CycleError) Len() int {
	n := 0
	for _, h := range e.Hops {
		if h.Node.Seq >= 0 {
			n++
		}
	}
	return n
}

// String renders the cycle as a one-line happens-before loop, e.g.
// "ST(P1,B1,1) ─po→ LD(P2,B1,⊥) ─forced→ ST(P1,B1,1)".
func (e *CycleError) String() string {
	if len(e.Hops) == 0 {
		return e.Msg
	}
	var sb strings.Builder
	for _, h := range e.Hops {
		sb.WriteString(h.Node.String())
		sb.WriteString(" ─")
		sb.WriteString(h.Label.String())
		sb.WriteString("→ ")
	}
	sb.WriteString(e.Hops[0].Node.String())
	return sb.String()
}

// maxVia caps the number of contracted nodes remembered per active-graph
// edge, so witness bookkeeping stays bounded on arbitrarily long streams; a
// chain that overflows keeps its first maxVia hops plus an elision marker.
const maxVia = 64

// EnableWitness switches the checker into witness mode: it records node
// identities and edge provenance so that a rejection carries the actual
// offending cycle (CycleError.Hops) instead of just the closing edge. Must
// be called before the first Step. Witness mode costs O(active edges ×
// chain length) extra memory, bounded by maxVia per edge; the model
// checker, which clones the automaton at every branch, leaves it off and
// re-derives witnesses by replaying the counterexample run.
func (c *Checker) EnableWitness() *Checker {
	if c.witness {
		return c
	}
	c.witness = true
	c.refs = make([]NodeRef, c.n)
	c.lab = make([]uint8, c.n*c.n)
	c.via = make(map[int32][]Hop)
	return c
}

// WitnessEnabled reports whether witness mode is on.
func (c *Checker) WitnessEnabled() bool { return c.witness }

func (c *Checker) edgeKey(f, t int) int32 { return int32(f*c.n + t) }

// noteNode records the identity of the node claiming the slot.
func (c *Checker) noteNode(slot int16, v descriptor.Node) {
	if !c.witness {
		return
	}
	c.refs[slot] = NodeRef{Seq: c.seq, ID: v.ID, Op: v.Op}
}

// noteEdge records the label of a freshly added direct edge. The edge was
// absent, so it has no via chain to drop (see clearWitness).
func (c *Checker) noteEdge(f, t int16, label descriptor.EdgeLabel) {
	if !c.witness {
		return
	}
	c.lab[c.edgeKey(int(f), int(t))] = uint8(label)
}

// noteContraction records provenance for each edge p → s that contracting
// the node at slot out of the paths p → slot → s creates (a pre-existing
// direct edge is a shorter witness and keeps its own), then drops the
// bookkeeping of p → slot, which the contraction removes.
func (c *Checker) noteContraction(p, slot int) {
	if !c.witness {
		return
	}
	in := c.row(p)
	for i, m := range c.row(slot) {
		for fresh := m &^ in[i]; fresh != 0; fresh &= fresh - 1 {
			c.noteChain(p, slot, i<<6|bits.TrailingZeros64(fresh))
		}
	}
	c.dropWitness(c.edgeKey(p, slot))
}

// noteChain records the provenance of edge (p,s): the chain of p → slot,
// the contracted node, then the chain of slot → s.
func (c *Checker) noteChain(p, slot, s int) {
	key := c.edgeKey(p, s)
	c.lab[key] = c.lab[c.edgeKey(p, slot)]
	pre := c.via[c.edgeKey(p, slot)]
	if len(pre) > maxVia {
		// pre is already truncated (maxVia hops and the elision marker),
		// and the longer chain truncates to exactly pre. Chains are never
		// modified once stored, so the two edges share it.
		c.via[key] = pre
		return
	}
	post := c.via[c.edgeKey(slot, s)]
	chain := make([]Hop, 0, len(pre)+1+len(post))
	chain = append(chain, pre...)
	chain = append(chain, Hop{Node: c.refs[slot], Label: descriptor.EdgeLabel(c.lab[c.edgeKey(slot, s)])})
	chain = append(chain, post...)
	if len(chain) > maxVia {
		chain = append(chain[:maxVia:maxVia], Hop{Node: NodeRef{Seq: -1}})
	}
	c.via[key] = chain
}

// clearWitness drops the witness bookkeeping of the slot's outgoing edges
// before its row is cleared; noteContraction has dropped that of its
// incoming ones. It relies on the invariant that lab and via hold entries
// only for live edges, so it visits only the row's set bits.
func (c *Checker) clearWitness(slot int) {
	if !c.witness {
		return
	}
	for i, m := range c.row(slot) {
		for ; m != 0; m &= m - 1 {
			c.dropWitness(c.edgeKey(slot, i<<6|bits.TrailingZeros64(m)))
		}
	}
}

func (c *Checker) dropWitness(key int32) {
	c.lab[key] = 0
	delete(c.via, key)
}

// extractCycle builds the CycleError for the closing edge symbol e, whose
// endpoints resolved to the slots from and to. In witness mode the full
// original-node cycle is reconstructed: the active-graph path to → … → from
// with each contracted chain expanded, then the closing edge from → to.
func (c *Checker) extractCycle(from, to int16, e descriptor.Edge) *CycleError {
	ce := &CycleError{
		From: e.From, To: e.To,
		Msg: fmt.Sprintf("cycle: edge (%d,%d) closes a cycle", e.From, e.To),
	}
	if !c.witness {
		return ce
	}
	path := c.findPath(to, from)
	if path == nil {
		return ce // defensive: caller established reachability
	}
	var hops []Hop
	for i := 0; i+1 < len(path); i++ {
		f, t := path[i], path[i+1]
		key := c.edgeKey(int(f), int(t))
		hops = append(hops, Hop{Node: c.refs[f], Label: descriptor.EdgeLabel(c.lab[key])})
		hops = append(hops, c.via[key]...)
	}
	hops = append(hops, Hop{Node: c.refs[from], Label: e.Label})
	ce.Hops = hops
	return ce
}

// selfLoopError reports the 1-cycle created when an edge symbol's endpoints
// name the same node.
func (c *Checker) selfLoopError(slot int16, e descriptor.Edge) *CycleError {
	ce := &CycleError{
		From: e.From, To: e.To,
		Msg: fmt.Sprintf("cycle: self-loop via edge (%d,%d)", e.From, e.To),
	}
	if c.witness {
		ce.Hops = []Hop{{Node: c.refs[slot], Label: e.Label}}
	}
	return ce
}

// findPath returns the slots of some path src → … → dst in the active
// graph (inclusive of both endpoints), or nil if none exists. Deterministic:
// DFS in increasing slot order.
func (c *Checker) findPath(src, dst int16) []int16 {
	n := c.n
	parent := make([]int16, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	stack := []int16{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == dst {
			// Reconstruct by walking parents back to src.
			var rev []int16
			for v := dst; ; v = parent[v] {
				rev = append(rev, v)
				if v == src {
					break
				}
			}
			path := make([]int16, len(rev))
			for i, v := range rev {
				path[len(rev)-1-i] = v
			}
			return path
		}
		row := c.row(int(u))
		for i := len(row) - 1; i >= 0; i-- { // push high first so low slots pop first
			for m := row[i]; m != 0; {
				b := 63 - bits.LeadingZeros64(m)
				m &^= 1 << b
				if v := int16(i<<6 | b); parent[v] < 0 {
					parent[v] = u
					stack = append(stack, v)
				}
			}
		}
	}
	return nil
}

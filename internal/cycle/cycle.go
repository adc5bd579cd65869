// Package cycle implements the finite-state cycle checker of Lemma 3.3 of
// Condon & Hu: an automaton that reads a k-graph descriptor symbol by
// symbol and rejects exactly the streams describing cyclic graphs. It
// maintains an "active graph" of at most k+1 nodes; when a node's last ID
// is recycled, the node is removed after contracting every path through it
// (for edges (H,X) and (X,J), edge (H,J) is added), which preserves all
// cycles among the surviving nodes.
//
// The representation is deliberately flat — an ID-to-slot table and a
// dense adjacency matrix over at most k+2 slots — because the model
// checker clones the automaton at every branch of the product-state
// exploration: Clone is three slice copies.
package cycle

import (
	"fmt"

	"scverify/internal/descriptor"
)

// Checker is the finite-state cycle-checking automaton. The zero value is
// not usable; construct with New.
type Checker struct {
	k int
	n int // slot count = k+2 (at most k+1 active nodes)

	owner   []int16 // ID (1..k+1) -> slot, -1 when unbound
	idCount []int16 // per slot: IDs currently naming it; 0 = free slot
	adj     []bool  // n×n adjacency; adj[f*n+t] means edge slot f -> slot t

	// Witness-mode bookkeeping (EnableWitness): node identities per slot,
	// first-seen label per active edge, and contraction provenance chains.
	// All nil/zero when witness mode is off; none of it influences
	// acceptance, only the content of CycleError rejections.
	witness bool
	seq     int       // node symbols consumed (NodeRef.Seq source)
	refs    []NodeRef // per slot: identity of the node holding it
	lab     []uint8   // n×n: EdgeLabel of the first hop of edge f -> t
	via     map[int32][]Hop

	rejected error
	stats    Stats
}

// Stats accumulates observability counters for benchmarking and tests.
type Stats struct {
	Symbols      int // symbols processed
	Edges        int // edge symbols processed
	Contractions int // contracted edge pairs
	MaxActive    int // high-water mark of active node count
}

// New returns a cycle checker for k-graph descriptors (IDs 1..k+1).
func New(k int) *Checker {
	n := k + 2
	c := &Checker{
		k:       k,
		n:       n,
		owner:   make([]int16, k+2),
		idCount: make([]int16, n),
		adj:     make([]bool, n*n),
	}
	for i := range c.owner {
		c.owner[i] = -1
	}
	return c
}

// K returns the bandwidth bound the checker was built for.
func (c *Checker) K() int { return c.k }

// Stats returns the counters accumulated so far.
func (c *Checker) Stats() Stats { return c.stats }

// Err returns the rejection error if the checker has rejected, else nil.
func (c *Checker) Err() error { return c.rejected }

// Active returns the number of nodes currently in the active graph.
func (c *Checker) Active() int {
	n := 0
	for _, cnt := range c.idCount {
		if cnt > 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the checker; stepping the copy never
// affects the original.
func (c *Checker) Clone() *Checker {
	out := &Checker{
		k: c.k, n: c.n,
		owner:    append([]int16(nil), c.owner...),
		idCount:  append([]int16(nil), c.idCount...),
		adj:      append([]bool(nil), c.adj...),
		witness:  c.witness,
		seq:      c.seq,
		rejected: c.rejected,
		stats:    c.stats,
	}
	if c.witness {
		out.refs = append([]NodeRef(nil), c.refs...)
		out.lab = append([]uint8(nil), c.lab...)
		out.via = make(map[int32][]Hop, len(c.via))
		for k, v := range c.via {
			// Chains are immutable once built (noteContraction always
			// allocates fresh), so sharing the slices is safe.
			out.via[k] = v
		}
	}
	return out
}

// CopyFrom overwrites c with a deep copy of src, reusing c's slices and
// witness map: the model checker's per-worker scratch copies each parent
// state in before stepping it, so successors that turn out to be
// duplicates cost no allocation. Witness buffers of a non-witness copy
// are kept for reuse but never read.
func (c *Checker) CopyFrom(src *Checker) {
	c.k, c.n = src.k, src.n
	c.owner = append(c.owner[:0], src.owner...)
	c.idCount = append(c.idCount[:0], src.idCount...)
	c.adj = append(c.adj[:0], src.adj...)
	c.witness = src.witness
	c.seq = src.seq
	c.rejected = src.rejected
	c.stats = src.stats
	if !src.witness {
		return
	}
	c.refs = append(c.refs[:0], src.refs...)
	c.lab = append(c.lab[:0], src.lab...)
	if c.via == nil {
		c.via = make(map[int32][]Hop, len(src.via))
	}
	clear(c.via)
	for k, v := range src.via {
		c.via[k] = v // chains are immutable; see Clone
	}
}

// Step consumes one symbol. Once the checker rejects, it stays rejected
// and returns the same error for all subsequent symbols.
func (c *Checker) Step(sym descriptor.Symbol) error {
	if c.rejected != nil {
		return c.rejected
	}
	c.stats.Symbols++
	switch v := sym.(type) {
	case descriptor.Node:
		if v.ID < 1 || v.ID > c.k+1 {
			return c.reject(fmt.Errorf("cycle: node ID %d outside 1..%d", v.ID, c.k+1))
		}
		c.releaseID(v.ID)
		slot := c.freeSlot()
		c.owner[v.ID] = slot
		c.idCount[slot] = 1
		c.noteNode(slot, v)
		c.seq++
		if a := c.Active(); a > c.stats.MaxActive {
			c.stats.MaxActive = a
		}
	case descriptor.AddID:
		if v.Existing < 1 || v.Existing > c.k+1 || v.New < 1 || v.New > c.k+1 {
			return c.reject(fmt.Errorf("cycle: add-ID(%d,%d) outside 1..%d", v.Existing, v.New, c.k+1))
		}
		if v.Existing == v.New {
			return nil // ID stays with its current node
		}
		gainer := c.owner[v.Existing]
		if c.owner[v.New] == gainer && gainer >= 0 {
			return nil // alias already in place
		}
		c.releaseID(v.New)
		if gainer >= 0 {
			c.owner[v.New] = gainer
			c.idCount[gainer]++
		}
	case descriptor.Edge:
		c.stats.Edges++
		if v.From < 1 || v.From > c.k+1 || v.To < 1 || v.To > c.k+1 {
			return c.reject(fmt.Errorf("cycle: edge (%d,%d) outside 1..%d", v.From, v.To, c.k+1))
		}
		from, to := c.owner[v.From], c.owner[v.To]
		if from < 0 || to < 0 {
			return nil // unbound IDs denote no edge (Section 3.2 semantics)
		}
		if from == to {
			return c.reject(c.selfLoopError(from, v))
		}
		if c.reachable(to, from) {
			return c.reject(c.extractCycle(from, to, v))
		}
		if !c.adj[int(from)*c.n+int(to)] {
			c.noteEdge(from, to, v.Label)
		}
		c.adj[int(from)*c.n+int(to)] = true
	default:
		return c.reject(fmt.Errorf("cycle: unknown symbol type %T", sym))
	}
	return nil
}

// Check runs the checker over a whole stream, returning nil iff the
// stream describes an acyclic graph.
func (c *Checker) Check(s descriptor.Stream) error {
	for _, sym := range s {
		if err := c.Step(sym); err != nil {
			return err
		}
	}
	return c.rejected
}

// CheckStream is a convenience that runs a fresh checker over the stream.
func CheckStream(s descriptor.Stream, k int) error {
	return New(k).Check(s)
}

func (c *Checker) reject(err error) error {
	c.rejected = err
	return err
}

func (c *Checker) freeSlot() int16 {
	for i, cnt := range c.idCount {
		if cnt == 0 {
			// A freshly claimed slot must not carry stale edges; rows are
			// cleared on contraction, so this is just bookkeeping safety.
			return int16(i)
		}
	}
	// Unreachable: k+1 IDs can name at most k+1 nodes and there are k+2
	// slots.
	panic("cycle: no free slot")
}

// releaseID detaches the ID from its holder; if the holder loses its last
// ID, the holder is contracted out of the active graph.
func (c *Checker) releaseID(id int) {
	slot := c.owner[id]
	if slot < 0 {
		return
	}
	c.owner[id] = -1
	c.idCount[slot]--
	if c.idCount[slot] > 0 {
		return
	}
	c.contractOut(int(slot))
}

// contractOut removes the node at the slot, adding an edge (H,J) for every
// pair of edges (H,node),(node,J). Cycles through the node are preserved
// among its neighbours; H==J cannot occur because that cycle would already
// have been rejected.
func (c *Checker) contractOut(slot int) {
	n := c.n
	for p := 0; p < n; p++ {
		if !c.adj[p*n+slot] {
			continue
		}
		for s := 0; s < n; s++ {
			if c.adj[slot*n+s] {
				c.stats.Contractions++
				if !c.adj[p*n+s] {
					// A pre-existing direct edge (p,s) is a shorter witness;
					// provenance is only recorded for genuinely new edges.
					c.noteContraction(p, slot, s)
				}
				c.adj[p*n+s] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		c.adj[i*n+slot] = false
		c.adj[slot*n+i] = false
	}
	c.clearWitness(slot)
}

// reachable reports whether dst is reachable from src in the active graph.
func (c *Checker) reachable(src, dst int16) bool {
	if src == dst {
		return true
	}
	n := c.n
	var seen [66]bool // n ≤ 66 would overflow; sized dynamically below if needed
	var seenSlice []bool
	if n <= len(seen) {
		seenSlice = seen[:n]
	} else {
		seenSlice = make([]bool, n)
	}
	var stack [66]int16
	var stk []int16
	if n <= len(stack) {
		stk = stack[:0]
	} else {
		stk = make([]int16, 0, n)
	}
	stk = append(stk, src)
	seenSlice[src] = true
	for len(stk) > 0 {
		u := int(stk[len(stk)-1])
		stk = stk[:len(stk)-1]
		row := c.adj[u*n : (u+1)*n]
		for v, ok := range row {
			if !ok || seenSlice[v] {
				continue
			}
			if int16(v) == dst {
				return true
			}
			seenSlice[v] = true
			stk = append(stk, int16(v))
		}
	}
	return false
}

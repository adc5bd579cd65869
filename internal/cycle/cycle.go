// Package cycle implements the finite-state cycle checker of Lemma 3.3 of
// Condon & Hu: an automaton that reads a k-graph descriptor symbol by
// symbol and rejects exactly the streams describing cyclic graphs. It
// maintains an "active graph" of at most k+1 nodes; when a node's last ID
// is recycled, the node is removed after contracting every path through it
// (for edges (H,X) and (X,J), edge (H,J) is added), which preserves all
// cycles among the surviving nodes.
//
// The representation is deliberately flat — an ID-to-slot table and, per
// slot, a row of ⌈(k+2)/64⌉ words whose set bits are the slot's successors
// — because the model checker copies the automaton at every branch of the
// product-state exploration: a copy is three slice copies, 336 bytes of
// adjacency at k = 40. Contracting a node ORs its row into each
// predecessor's, and the searches walk set bits only.
package cycle

import (
	"fmt"
	"math/bits"

	"scverify/internal/descriptor"
)

// Checker is the finite-state cycle-checking automaton. The zero value is
// not usable; construct with New.
type Checker struct {
	k int
	n int // slot count = k+2 (at most k+1 active nodes)
	w int // words per adjacency row = ⌈n/64⌉

	owner   []int16  // ID (1..k+1) -> slot, -1 when unbound
	idCount []int16  // per slot: IDs currently naming it; 0 = free slot
	adj     []uint64 // n rows of w words; bit t of row f: edge slot f -> slot t

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
	w := (n + 63) / 64
	c := &Checker{
		k:       k,
		n:       n,
		w:       w,
		owner:   make([]int16, k+2),
		idCount: make([]int16, n),
		adj:     make([]uint64, n*w),
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

// Clone returns a deep copy of the checker; stepping either never affects
// the other.
func (c *Checker) Clone() *Checker {
	out := new(Checker)
	out.CopyFrom(c)
	return out
}

// CopyFrom overwrites c with a deep copy of src, reusing c's slices and
// witness map: the model checker's per-worker scratch copies each parent
// state in before stepping it, so successors that turn out to be
// duplicates cost no allocation. Witness buffers of a non-witness copy
// are kept for reuse but never read. Contraction chains are never
// modified once stored (noteContraction builds a new one or stores an
// existing truncated one as is), so copies share them.
func (c *Checker) CopyFrom(src *Checker) {
	c.k, c.n, c.w = src.k, src.n, src.w
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
		c.via[k] = v
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
		if row := c.row(int(from)); row[to>>6]&(1<<(to&63)) == 0 {
			c.noteEdge(from, to, v.Label)
			row[to>>6] |= 1 << (to & 63)
		}
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

// row returns the adjacency row of the slot: bit t is the edge slot -> t.
func (c *Checker) row(slot int) []uint64 { return c.adj[slot*c.w : (slot+1)*c.w] }

// contractOut removes the node at the slot, adding an edge (H,J) for every
// pair of edges (H,node),(node,J): each predecessor's row gains the slot's
// row. Cycles through the node are preserved among its neighbours; H==J
// cannot occur because that cycle would already have been rejected.
func (c *Checker) contractOut(slot int) {
	out := c.row(slot)
	word, bit := slot>>6, uint64(1)<<(slot&63)
	fan := 0
	for _, m := range out {
		fan += bits.OnesCount64(m)
	}
	for p, at := 0, word; at < len(c.adj); p, at = p+1, at+c.w {
		if c.adj[at]&bit == 0 {
			continue
		}
		in := c.row(p)
		c.stats.Contractions += fan
		c.noteContraction(p, slot)
		for i, m := range out {
			in[i] |= m
		}
		in[word] &^= bit
	}
	c.clearWitness(slot)
	clear(out)
}

// reachable reports whether dst is reachable from src in the active graph.
func (c *Checker) reachable(src, dst int16) bool {
	if src == dst {
		return true
	}
	var seenBuf [2]uint64
	var stackBuf [128]int16
	seen := seenBuf[:0]
	if c.w <= len(seenBuf) {
		seen = seenBuf[:c.w]
	} else {
		seen = make([]uint64, c.w)
	}
	seen[src>>6] |= 1 << (src & 63)
	dw, db := dst>>6, uint64(1)<<(dst&63)
	stk := append(stackBuf[:0], src)
	for len(stk) > 0 {
		row := c.row(int(stk[len(stk)-1]))
		stk = stk[:len(stk)-1]
		if row[dw]&db != 0 {
			return true
		}
		for i, m := range row {
			m &^= seen[i]
			seen[i] |= m
			for ; m != 0; m &= m - 1 {
				stk = append(stk, int16(i<<6|bits.TrailingZeros64(m)))
			}
		}
	}
	return false
}

package observer

import (
	"slices"

	"scverify/internal/trace"
)

// appendRoles appends the node handles the generator holds, in a fixed
// role order, so the canonical renaming is history-independent. Other
// generators hold no roles the renaming can see.
func (o *Observer) appendRoles(dst []NodeHandle) []NodeHandle {
	switch g := o.gen.(type) {
	case *RealTime:
		return appendLastRoles(dst, g.last)
	case *QueueGenerator:
		return g.appendRoles(dst)
	}
	return dst
}

// CanonicalRename computes a permutation of descriptor IDs that depends
// only on the observer's abstract state, not on the history of pool
// allocations: live nodes are numbered by a fixed traversal of the
// observer's roles (locations, program-order tails, first stores, pending
// ⊥-loads, generator roles, then successors and pending loads of already-
// numbered nodes), and free IDs are numbered by their pop order. The
// returned slice maps raw ID → canonical ID for 1..poolSize, with the
// reserved release ID mapped to itself. Renaming the observer's and
// checker's state keys through this permutation makes runs that differ
// only in allocation history collide in the model checker's visited set.
func (o *Observer) CanonicalRename() []int {
	return o.AppendCanonicalRename(make([]int, 0, o.poolSize+2))
}

// AppendCanonicalRename appends the CanonicalRename permutation (indices
// 0..poolSize+1) to dst. It builds no maps and, for up to 64 live nodes,
// allocates nothing beyond growing dst.
func (o *Observer) AppendCanonicalRename(dst []int) []int {
	start := len(dst)
	for i := 0; i < o.poolSize+2; i++ {
		dst = append(dst, 0)
	}
	pi := dst[start:]
	next := 1
	var queueBuf [64]*onode
	queue := queueBuf[:0]
	name := func(n *onode) {
		if n == nil || pi[n.id] != 0 {
			return
		}
		pi[n.id] = next
		next++
		queue = append(queue, n)
	}

	for _, n := range o.locToNode[1:] {
		name(n)
	}
	var idBuf [16]int
	procs := idBuf[:0]
	for p := range o.lastOp {
		procs = append(procs, int(p))
	}
	slices.Sort(procs)
	for _, p := range procs {
		name(o.lastOp[trace.ProcID(p)])
	}
	blocks := idBuf[:0]
	for b := range o.firstSt {
		blocks = append(blocks, int(b))
	}
	slices.Sort(blocks)
	for _, b := range blocks {
		name(o.firstSt[trace.BlockID(b)])
	}
	var bkeyBuf [16][2]int
	for _, k := range o.sortedBottoms(bkeyBuf[:0]) {
		name(o.bottoms[k])
	}
	var roleBuf [16]NodeHandle
	for _, h := range o.appendRoles(roleBuf[:0]) {
		if n, ok := o.nodes[h]; ok {
			name(n)
		}
	}
	// Breadth-first closure over structural references.
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		name(n.stSucc)
		ps := idBuf[:0]
		if len(n.pending) > 0 {
			for p := range n.pending {
				ps = append(ps, int(p))
			}
		}
		slices.Sort(ps)
		for _, p := range ps {
			name(n.pending[trace.ProcID(p)])
		}
	}
	// Free IDs in pop order (top of stack allocates first).
	for i := len(o.freeIDs) - 1; i >= 0; i-- {
		id := o.freeIDs[i]
		if pi[id] == 0 {
			pi[id] = next
			next++
		}
	}
	// Defensive: any remaining raw IDs (should not occur — every live node
	// is reachable from a role, every dead ID is in the free pool).
	for id := 1; id <= o.poolSize; id++ {
		if pi[id] == 0 {
			pi[id] = next
			next++
		}
	}
	pi[o.poolSize+1] = o.poolSize + 1
	return dst
}

// sortedBottoms appends the pending ⊥-load keys in (processor, block)
// order.
func (o *Observer) sortedBottoms(dst [][2]int) [][2]int {
	for k := range o.bottoms {
		dst = append(dst, k)
	}
	slices.SortFunc(dst, cmpPair)
	return dst
}

func cmpPair(a, b [2]int) int {
	if a[0] != b[0] {
		return a[0] - b[0]
	}
	return a[1] - b[1]
}

package observer

// CanonicalRename computes a permutation of descriptor IDs that depends
// only on the observer's abstract state, not on the history of pool
// allocations: live nodes are numbered by a fixed traversal of the
// observer's roles (locations, program-order tails, first stores, pending
// ⊥-loads, queued stores by processor, last stores by block, then
// successors and pending loads of already-numbered nodes), and free IDs
// are numbered by their pop order. The
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
	var queueBuf [64]int32
	queue := queueBuf[:0]
	name := func(id int32) {
		if id == 0 || pi[id] != 0 {
			return
		}
		pi[id] = next
		next++
		queue = append(queue, id)
	}

	for _, id := range o.locToNode[1:] {
		name(id)
	}
	for _, id := range o.lastOp {
		name(id)
	}
	for _, id := range o.firstSt {
		name(id)
	}
	for _, id := range o.bottoms {
		name(id)
	}
	for p := 1; p <= o.procs; p++ {
		for _, id := range o.queue {
			if int(o.nodes[id].op.Proc) == p {
				name(id)
			}
		}
	}
	for _, id := range o.lastSt {
		name(id)
	}
	// Breadth-first closure over structural references: live successors
	// (a released one's ID may already name another node) and pending
	// loads.
	for i := 0; i < len(queue); i++ {
		n := &o.nodes[queue[i]]
		if s := &o.nodes[n.succ]; n.ordered && s.live && s.h == n.succH {
			name(n.succ)
		}
		for _, l := range o.pendingOf(queue[i]) {
			name(l)
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

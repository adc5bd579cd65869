package checker

import (
	"cmp"
	"slices"

	"scverify/internal/descriptor"
	"scverify/internal/graph"
	"scverify/internal/trace"
)

// Annotation bit aliases keep the Step dispatch readable.
const (
	gInheritance  = graph.Inheritance
	gProgramOrder = graph.ProgramOrder
	gStoreOrder   = graph.StoreOrder
	gForced       = graph.Forced
)

// onProgramOrder enforces constraint 2 incrementally: program-order edges
// stay within one processor, respect trace order, and never give a node
// two incoming or two outgoing program-order edges.
func (c *Checker) onProgramOrder(a, b int32) error {
	ra, rb := c.rec(a), c.rec(b)
	if ra.op.Proc != rb.op.Proc {
		return c.reject(Constraint2, []trace.Op{ra.op, rb.op}, "constraint 2: program-order edge %s→%s crosses processors", ra.op, rb.op)
	}
	if ra.seq >= rb.seq {
		return c.reject(Constraint2, []trace.Op{ra.op, rb.op}, "constraint 2: program-order edge %s→%s against trace order", ra.op, rb.op)
	}
	if ra.poOut && ra.poNext == rb.seq {
		return nil // duplicate symbol for an existing edge
	}
	if ra.poOut {
		return c.reject(Constraint2, []trace.Op{ra.op}, "constraint 2: second outgoing program-order edge from %s", ra.op)
	}
	if rb.poIn {
		return c.reject(Constraint2, []trace.Op{rb.op}, "constraint 2: second incoming program-order edge into %s", rb.op)
	}
	ra.poOut, rb.poIn = true, true
	ra.poNext = rb.seq
	return nil
}

// onStoreOrder enforces constraint 3 incrementally and arms constraint-5(a)
// obligations: once a store's ST-order successor k is known, every pending
// inheritor of the store owes a forced edge to k.
func (c *Checker) onStoreOrder(a, b int32) error {
	ra, rb := c.rec(a), c.rec(b)
	if !ra.op.IsStore() || !rb.op.IsStore() {
		return c.reject(Constraint3, []trace.Op{ra.op, rb.op}, "constraint 3: ST-order edge %s→%s touches a non-store", ra.op, rb.op)
	}
	if ra.op.Block != rb.op.Block {
		return c.reject(Constraint3, []trace.Op{ra.op, rb.op}, "constraint 3: ST-order edge %s→%s crosses blocks", ra.op, rb.op)
	}
	if ra.stSucc == b {
		return nil // duplicate symbol for an existing edge
	}
	if ra.stOut {
		return c.reject(Constraint3, []trace.Op{ra.op}, "constraint 3: second outgoing ST-order edge from %s", ra.op)
	}
	if rb.stIn {
		return c.reject(Constraint3, []trace.Op{rb.op}, "constraint 3: second incoming ST-order edge into %s", rb.op)
	}
	ra.stOut, rb.stIn = true, true
	ra.stSucc = c.hold(b)
	// b can no longer be the first store of its block: ⊥-load obligations
	// tentatively satisfied by b are no longer.
	for key, bo := range c.bottoms {
		if c.has(bo.load, b) {
			bo.targets = c.removeLink(bo.load, bo.targets, b)
			c.bottoms[key] = bo
		}
	}
	for o := ra.pending; o != 0; o = c.obligs.items[o].next {
		ob := &c.obligs.items[o]
		ob.target = c.hold(b)
		ob.done = c.has(ob.load, b)
		if !ob.done {
			c.arm(o)
			if err := c.checkFeasible(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// onInheritance enforces constraint 4 and installs or transfers the
// constraint-5(a) obligation slot for (store, processor).
func (c *Checker) onInheritance(a, b int32) error {
	ra, rb := c.rec(a), c.rec(b)
	if !rb.op.IsLoad() || rb.op.Value == trace.Bottom {
		return c.reject(Constraint4, []trace.Op{rb.op}, "constraint 4: inheritance edge into %s", rb.op)
	}
	if !ra.op.IsStore() || ra.op.Block != rb.op.Block {
		return c.reject(Constraint4, []trace.Op{ra.op, rb.op}, "constraint 4: inheritance edge %s→%s mismatched", ra.op, rb.op)
	}
	if !c.noValues && ra.op.Value != rb.op.Value {
		return c.reject(Constraint4, []trace.Op{ra.op, rb.op}, "constraint 4: inheritance edge %s→%s value mismatch", ra.op, rb.op)
	}
	if rb.inhFrom == a {
		return nil // duplicate symbol for an existing edge
	}
	if rb.inhIn {
		return c.reject(Constraint4, []trace.Op{rb.op}, "constraint 4: second inheritance edge into %s", rb.op)
	}
	rb.inhIn = true
	rb.inhFrom = c.hold(a)
	// The new load becomes the obligation carrier for (a, proc): the
	// previous carrier is discharged via the program-order path to b.
	if old := c.slot(a, rb.op.Proc); old != 0 {
		c.unlinkSlot(old)
	}
	o := c.obligs.alloc()
	ob := &c.obligs.items[o]
	*ob = oblig{store: a, proc: rb.op.Proc, load: c.hold(b), next: ra.pending}
	if ra.pending != 0 {
		c.obligs.items[ra.pending].prev = o
	}
	ra.pending = o
	c.index[indexKey(a, int(rb.op.Proc))] = o
	if ra.stSucc != 0 {
		ob.target = c.hold(ra.stSucc)
		ob.done = c.has(b, ra.stSucc)
		if !ob.done {
			c.arm(o)
		}
	}
	return nil
}

// onForced records forced edges for obligation discharge. Forced edges
// that cannot discharge anything (wrong endpoint kinds or blocks) carry no
// annotation obligations of their own, so they are simply ignored here;
// the cycle checker has already added them to the graph.
func (c *Checker) onForced(a, b int32) error {
	ra, rb := c.rec(a), c.rec(b)
	if !ra.op.IsLoad() || !rb.op.IsStore() || ra.op.Block != rb.op.Block {
		return nil
	}
	if ra.op.Value == trace.Bottom {
		key := [2]int{int(ra.op.Proc), int(ra.op.Block)}
		if bo, ok := c.bottoms[key]; ok && bo.load == a && !rb.stIn {
			// b is still a candidate first store of the block.
			bo.targets = c.addLink(a, bo.targets, b)
			c.bottoms[key] = bo
		}
		return nil
	}
	ra.forced = c.addLink(a, ra.forced, b)
	if ra.inhFrom != 0 {
		if o := c.slot(ra.inhFrom, ra.op.Proc); o != 0 {
			if ob := &c.obligs.items[o]; ob.load == a && ob.target == b && !ob.done {
				ob.done = true
				c.disarm(o)
			}
		}
	}
	return nil
}

// checkFeasible eagerly rejects an armed obligation that can no longer be
// satisfied: the forced edge needs the carrier load and the target store
// bound, and a replacement carrier needs the inherited-from store bound.
func (c *Checker) checkFeasible(o int32) error {
	ob := c.obligs.items[o]
	if !ob.armed() {
		return nil
	}
	load, target := c.rec(ob.load), c.rec(ob.target)
	if !target.active {
		return c.reject(Constraint5a, []trace.Op{load.op, target.op}, "constraint 5a: load %s owes a forced edge to retired store %s", load.op, target.op)
	}
	if !load.active && !c.rec(ob.store).active {
		return c.reject(Constraint5a, []trace.Op{load.op, target.op}, "constraint 5a: retired load %s owes a forced edge to %s and no successor inheritor can arise", load.op, target.op)
	}
	return nil
}

// deactivate finalizes a node whose ID-set became empty. Its program-order
// and ST-order degree bits are now final, inheritance for loads must have
// arrived, and outstanding obligations are re-examined for feasibility.
func (c *Checker) deactivate(i int32) error {
	r := c.rec(i)
	r.active = false
	// Hold i while its own links are dropped below, so that it is reclaimed
	// once, at the end, if nothing else refers to it.
	c.hold(i)

	ps := c.procs[r.op.Proc]
	if !r.poIn {
		ps.srcFinal++
	}
	if !r.poOut {
		ps.snkFinal++
	}
	c.procs[r.op.Proc] = ps
	if !r.poIn && ps.srcFinal > 1 {
		return c.reject(Constraint2, []trace.Op{r.op}, "constraint 2: two first operations for processor P%d", r.op.Proc)
	}
	if !r.poOut && ps.snkFinal > 1 {
		return c.reject(Constraint2, []trace.Op{r.op}, "constraint 2: two last operations for processor P%d", r.op.Proc)
	}

	if r.op.IsStore() {
		bs := c.blocks[r.op.Block]
		if !r.stIn {
			bs.srcFinal++
			c.drop(bs.orphan)
			bs.orphan = c.hold(i)
		}
		if !r.stOut {
			bs.snkFinal++
		}
		c.blocks[r.op.Block] = bs
		if !r.stIn && bs.srcFinal > 1 {
			return c.reject(Constraint3, []trace.Op{r.op}, "constraint 3: two first stores for block B%d", r.op.Block)
		}
		if !r.stOut && bs.snkFinal > 1 {
			return c.reject(Constraint3, []trace.Op{r.op}, "constraint 3: two last stores for block B%d", r.op.Block)
		}
		// No ST-order successor can arrive anymore: pending obligations with
		// unknown targets are vacuous; armed ones must now be carried by
		// their current loads alone.
		for o := r.pending; o != 0; {
			next := c.obligs.items[o].next
			if c.obligs.items[o].target == 0 {
				c.unlinkSlot(o)
			} else if err := c.checkFeasible(o); err != nil {
				return err
			}
			o = next
		}
	} else if r.op.Value != trace.Bottom && !r.inhIn {
		return c.reject(Constraint4, []trace.Op{r.op}, "constraint 4: load %s retired without an inheritance edge", r.op)
	}

	// Re-examine armed obligations touching this node.
	for o := c.armed; o != 0; o = c.obligs.items[o].nextArmed {
		if ob := &c.obligs.items[o]; ob.load == i || ob.target == i || ob.store == i {
			if err := c.checkFeasible(o); err != nil {
				return err
			}
		}
	}

	// Sever links no future symbol can read. Edges reach records only
	// through live IDs, so a retired record's successor links are
	// write-only from here on; a pending slot whose carrier load has
	// itself retired can never match a live inheritor again (and the
	// armed/feasibility checks above have already adjudicated it). Without
	// this, retired records chain through the entire history — e.g. a
	// block's first store reaches every store of the block via stSucc —
	// and Clone/StateKey degrade from O(k²) to O(stream).
	if r.op.IsStore() {
		succ := r.stSucc
		r.stSucc = 0
		c.drop(succ)
		for o := r.pending; o != 0; {
			next := c.obligs.items[o].next
			if !c.rec(c.obligs.items[o].load).active {
				c.unlinkSlot(o)
			}
			o = next
		}
	} else if s := r.inhFrom; s != 0 {
		if o := c.slot(s, r.op.Proc); o != 0 && !c.rec(s).active && c.obligs.items[o].load == i {
			c.unlinkSlot(o)
		}
		r.inhFrom = 0
		c.drop(s)
	}
	c.drop(i)
	return nil
}

// Finish concludes the stream: the end-of-trace totality and obligation
// checks of FinishDry run, and a rejection becomes the checker's sticky
// one. Finish does not mutate the checker otherwise, so calling it again
// gives the same answer.
func (c *Checker) Finish() error {
	if err := c.FinishDry(); err != nil {
		c.rejected = err
		return err
	}
	return nil
}

// FinishDry reports whether Finish would accept right now, without
// mutating the checker: every still-active node is counted as if it were
// finalized, and the end-of-stream totality and obligation checks run. The
// model checker calls this once per discovered product state (every run
// prefix is a run), so it allocates nothing for states of up to 64 active
// nodes.
func (c *Checker) FinishDry() error {
	if c.rejected != nil {
		return c.rejected
	}
	var actBuf [64]int32
	act := actBuf[:0]
	var late *rec // the oldest active non-⊥ load without an inheritance edge
	for i := range c.recs.items {
		r := c.rec(int32(i))
		if !r.active {
			continue
		}
		act = append(act, int32(i))
		if r.op.IsLoad() && r.op.Value != trace.Bottom && !r.inhIn && (late == nil || r.seq < late.seq) {
			late = r
		}
	}
	if late != nil {
		return dryReject(Constraint4, []trace.Op{late.op}, "constraint 4: load %s has no inheritance edge at end of run", late.op)
	}
	// Every active record's processor and every active store's block has
	// an entry, so merging the sorted keys with the active records sorted
	// the same way adds each record to its own entry's counts.
	slices.SortFunc(act, func(a, b int32) int { return cmp.Compare(c.rec(a).op.Proc, c.rec(b).op.Proc) })
	var procBuf [16]trace.ProcID
	j := 0
	for _, p := range inOrder(c.procs, procBuf[:0], cmpID[trace.ProcID]) {
		ps := c.procs[p]
		src, snk := ps.srcFinal, ps.snkFinal
		for ; j < len(act) && c.rec(act[j]).op.Proc <= p; j++ {
			r := c.rec(act[j])
			src += int(b2u(!r.poIn))
			snk += int(b2u(!r.poOut))
		}
		if ps.seen && (src != 1 || snk != 1) {
			return dryReject(Constraint2, nil, "constraint 2: processor P%d has %d first / %d last operations, want 1/1", p, src, snk)
		}
	}
	slices.SortFunc(act, func(a, b int32) int { return cmp.Compare(c.rec(a).op.Block, c.rec(b).op.Block) })
	var blockBuf [16]trace.BlockID
	j = 0
	for _, b := range inOrder(c.blocks, blockBuf[:0], cmpID[trace.BlockID]) {
		bs := c.blocks[b]
		src, snk := bs.srcFinal, bs.snkFinal
		for ; j < len(act) && c.rec(act[j]).op.Block <= b; j++ {
			if r := c.rec(act[j]); r.op.Block == b && r.op.IsStore() {
				src += int(b2u(!r.stIn))
				snk += int(b2u(!r.stOut))
			}
		}
		if bs.stores && (src != 1 || snk != 1) {
			return dryReject(Constraint3, nil, "constraint 3: block B%d has %d first / %d last stores, want 1/1", b, src, snk)
		}
	}
	if o := c.firstUndischarged(); o != 0 {
		ob := c.obligs.items[o]
		load, target := c.rec(ob.load).op, c.rec(ob.target).op
		return dryReject(Constraint5a, []trace.Op{load, target}, "constraint 5a: load %s never produced a forced edge to %s", load, target)
	}
	var bottomBuf [16][2]int
	for _, key := range inOrder(c.bottoms, bottomBuf[:0], cmpPair) {
		bo := c.bottoms[key]
		b := trace.BlockID(key[1])
		if !c.blocks[b].stores {
			continue // no store to the block: constraint 5(b) vacuous
		}
		// The constraint-3 check above left exactly one first store: the
		// retired orphan or an active store without an incoming ST edge.
		first := c.blocks[b].orphan
		at, _ := slices.BinarySearchFunc(act, b, func(i int32, b trace.BlockID) int { return cmp.Compare(c.rec(i).op.Block, b) })
		for _, i := range act[at:] {
			if r := c.rec(i); r.op.Block != b {
				break
			} else if r.op.IsStore() && !r.stIn {
				first = i
			}
		}
		if first == 0 {
			return dryReject(ConstraintInternal, nil, "internal: block B%d has stores but no first store", b)
		}
		if !c.has(bo.load, first) {
			load := c.rec(bo.load).op
			return dryReject(Constraint5b, []trace.Op{load}, "constraint 5b: ⊥-load %s has no forced edge to block B%d's first store", load, b)
		}
	}
	return nil
}

// inOrder appends m's keys to buf in cmp order, so end-of-stream checks
// report the same violation whatever the map iteration order.
func inOrder[K comparable, V any](m map[K]V, buf []K, cmp func(a, b K) int) []K {
	for k := range m {
		buf = append(buf, k)
	}
	slices.SortFunc(buf, cmp)
	return buf
}

func cmpID[T trace.ProcID | trace.BlockID](a, b T) int { return int(a - b) }

// firstUndischarged returns the armed obligation whose carrier load, then
// target store, is oldest, or 0 when every obligation is discharged.
func (c *Checker) firstUndischarged() int32 {
	first := c.armed
	for o := c.armed; o != 0; o = c.obligs.items[o].nextArmed {
		ob, f := &c.obligs.items[o], &c.obligs.items[first]
		ls, fs := c.rec(ob.load).seq, c.rec(f.load).seq
		if ls < fs || ls == fs && c.rec(ob.target).seq < c.rec(f.target).seq {
			first = o
		}
	}
	return first
}

// Check runs a fresh checker over the whole stream, including Finish.
func Check(s descriptor.Stream, k int) error {
	c := New(k)
	for _, sym := range s {
		if err := c.Step(sym); err != nil {
			return err
		}
	}
	return c.Finish()
}

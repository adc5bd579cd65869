package checker

import (
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
func (c *Checker) onProgramOrder(a, b *rec) error {
	if a.op.Proc != b.op.Proc {
		return c.reject(Constraint2, []trace.Op{a.op, b.op}, "constraint 2: program-order edge %s→%s crosses processors", a.op, b.op)
	}
	if a.seq >= b.seq {
		return c.reject(Constraint2, []trace.Op{a.op, b.op}, "constraint 2: program-order edge %s→%s against trace order", a.op, b.op)
	}
	if a.poNext == b {
		return nil // duplicate symbol for an existing edge
	}
	if a.poOut {
		return c.reject(Constraint2, []trace.Op{a.op}, "constraint 2: second outgoing program-order edge from %s", a.op)
	}
	if b.poIn {
		return c.reject(Constraint2, []trace.Op{b.op}, "constraint 2: second incoming program-order edge into %s", b.op)
	}
	a.poOut, b.poIn = true, true
	a.poNext = b
	return nil
}

// onStoreOrder enforces constraint 3 incrementally and arms constraint-5(a)
// obligations: once a store's ST-order successor k is known, every pending
// inheritor of the store owes a forced edge to k.
func (c *Checker) onStoreOrder(a, b *rec) error {
	if !a.op.IsStore() || !b.op.IsStore() {
		return c.reject(Constraint3, []trace.Op{a.op, b.op}, "constraint 3: ST-order edge %s→%s touches a non-store", a.op, b.op)
	}
	if a.op.Block != b.op.Block {
		return c.reject(Constraint3, []trace.Op{a.op, b.op}, "constraint 3: ST-order edge %s→%s crosses blocks", a.op, b.op)
	}
	if a.stSucc == b {
		return nil // duplicate symbol for an existing edge
	}
	if a.stOut {
		return c.reject(Constraint3, []trace.Op{a.op}, "constraint 3: second outgoing ST-order edge from %s", a.op)
	}
	if b.stIn {
		return c.reject(Constraint3, []trace.Op{b.op}, "constraint 3: second incoming ST-order edge into %s", b.op)
	}
	a.stOut, b.stIn = true, true
	a.stSucc = b
	// b can no longer be the first store of its block: ⊥-load obligations
	// tentatively satisfied by b are no longer.
	for _, bo := range c.bottoms {
		delete(bo.targets, b)
	}
	for _, ob := range a.pending {
		ob.target = b
		ob.done = ob.load.forcedTo[b]
		if !ob.done {
			c.armed[ob] = true
			if err := c.checkFeasible(ob); err != nil {
				return err
			}
		}
	}
	return nil
}

// onInheritance enforces constraint 4 and installs or transfers the
// constraint-5(a) obligation slot for (store, processor).
func (c *Checker) onInheritance(a, b *rec) error {
	if !b.op.IsLoad() || b.op.Value == trace.Bottom {
		return c.reject(Constraint4, []trace.Op{b.op}, "constraint 4: inheritance edge into %s", b.op)
	}
	if !a.op.IsStore() || a.op.Block != b.op.Block {
		return c.reject(Constraint4, []trace.Op{a.op, b.op}, "constraint 4: inheritance edge %s→%s mismatched", a.op, b.op)
	}
	if !c.noValues && a.op.Value != b.op.Value {
		return c.reject(Constraint4, []trace.Op{a.op, b.op}, "constraint 4: inheritance edge %s→%s value mismatch", a.op, b.op)
	}
	if b.inhFrom == a {
		return nil // duplicate symbol for an existing edge
	}
	if b.inhIn {
		return c.reject(Constraint4, []trace.Op{b.op}, "constraint 4: second inheritance edge into %s", b.op)
	}
	b.inhIn = true
	b.inhFrom = a
	// The new load becomes the obligation carrier for (a, proc): the
	// previous carrier is discharged via the program-order path to b.
	if old, ok := a.pending[b.op.Proc]; ok {
		delete(c.armed, old)
	}
	ob := c.newOblig(oblig{store: a, proc: b.op.Proc, load: b})
	a.pending[b.op.Proc] = ob
	if a.stSucc != nil {
		ob.target = a.stSucc
		ob.done = b.forcedTo[a.stSucc]
		if !ob.done {
			c.armed[ob] = true
		}
	}
	return nil
}

// onForced records forced edges for obligation discharge. Forced edges
// that cannot discharge anything (wrong endpoint kinds or blocks) carry no
// annotation obligations of their own, so they are simply ignored here;
// the cycle checker has already added them to the graph.
func (c *Checker) onForced(a, b *rec) error {
	if !a.op.IsLoad() || !b.op.IsStore() || a.op.Block != b.op.Block {
		return nil
	}
	if a.op.Value == trace.Bottom {
		key := [2]int{int(a.op.Proc), int(a.op.Block)}
		if bo, ok := c.bottoms[key]; ok && bo.load == a && !b.stIn {
			// b is still a candidate first store of the block.
			bo.targets[b] = true
		}
		return nil
	}
	a.forcedTo[b] = true
	if a.inhFrom != nil {
		if ob, ok := a.inhFrom.pending[a.op.Proc]; ok && ob.load == a && ob.target == b {
			ob.done = true
			delete(c.armed, ob)
		}
	}
	return nil
}

// checkFeasible eagerly rejects an armed obligation that can no longer be
// satisfied: the forced edge needs the carrier load and the target store
// bound, and a replacement carrier needs the inherited-from store bound.
func (c *Checker) checkFeasible(ob *oblig) error {
	if ob.done {
		return nil
	}
	if !ob.target.active {
		return c.reject(Constraint5a, []trace.Op{ob.load.op, ob.target.op}, "constraint 5a: load %s owes a forced edge to retired store %s", ob.load.op, ob.target.op)
	}
	if !ob.load.active && !ob.store.active {
		return c.reject(Constraint5a, []trace.Op{ob.load.op, ob.target.op}, "constraint 5a: retired load %s owes a forced edge to %s and no successor inheritor can arise", ob.load.op, ob.target.op)
	}
	return nil
}

// deactivate finalizes a node whose ID-set became empty. Its program-order
// and ST-order degree bits are now final, inheritance for loads must have
// arrived, and outstanding obligations are re-examined for feasibility.
func (c *Checker) deactivate(r *rec) error {
	r.active = false

	ps := c.proc(r.op.Proc)
	if !r.poIn {
		ps.srcFinal++
		if ps.srcFinal > 1 {
			return c.reject(Constraint2, []trace.Op{r.op}, "constraint 2: two first operations for processor P%d", r.op.Proc)
		}
	}
	if !r.poOut {
		ps.snkFinal++
		if ps.snkFinal > 1 {
			return c.reject(Constraint2, []trace.Op{r.op}, "constraint 2: two last operations for processor P%d", r.op.Proc)
		}
	}

	if r.op.IsStore() {
		bs := c.block(r.op.Block)
		if !r.stIn {
			bs.srcFinal++
			bs.orphan = r
			if bs.srcFinal > 1 {
				return c.reject(Constraint3, []trace.Op{r.op}, "constraint 3: two first stores for block B%d", r.op.Block)
			}
		}
		if !r.stOut {
			bs.snkFinal++
			if bs.snkFinal > 1 {
				return c.reject(Constraint3, []trace.Op{r.op}, "constraint 3: two last stores for block B%d", r.op.Block)
			}
		}
		// No ST-order successor can arrive anymore: pending obligations with
		// unknown targets are vacuous; armed ones must now be carried by
		// their current loads alone.
		for p, ob := range r.pending {
			if ob.target == nil {
				delete(r.pending, p)
				continue
			}
			if err := c.checkFeasible(ob); err != nil {
				return err
			}
		}
	} else {
		if r.op.Value != trace.Bottom && !r.inhIn {
			return c.reject(Constraint4, []trace.Op{r.op}, "constraint 4: load %s retired without an inheritance edge", r.op)
		}
	}

	// Re-examine armed obligations touching this node.
	for ob := range c.armed {
		if ob.load == r || ob.target == r || ob.store == r {
			if err := c.checkFeasible(ob); err != nil {
				return err
			}
		}
	}

	// Sever links no future symbol can read. Edges reach records only
	// through live IDs, so a retired record's successor pointers are
	// write-only from here on; a pending slot whose carrier load has
	// itself retired can never match a live inheritor again (and the
	// armed/feasibility checks above have already adjudicated it). Without
	// this, retired records chain through the entire history — e.g. a
	// block's first store reaches every store of the block via stSucc —
	// and Clone/StateKey degrade from O(k²) to O(stream).
	r.poNext = nil
	if r.op.IsStore() {
		r.stSucc = nil
		for p, ob := range r.pending {
			if !ob.load.active {
				delete(r.pending, p)
			}
		}
	} else {
		if s := r.inhFrom; s != nil && !s.active {
			if ob, ok := s.pending[r.op.Proc]; ok && ob.load == r {
				delete(s.pending, r.op.Proc)
			}
		}
		r.inhFrom = nil
	}
	return nil
}

// Finish concludes the stream: every still-active node is finalized and
// the end-of-trace totality and obligation checks run. The checker must
// not be stepped after Finish.
func (c *Checker) Finish() error {
	if c.rejected != nil {
		return c.rejected
	}
	// Finalize active nodes, deterministically by age so error messages
	// are stable.
	for _, r := range c.activeRecs() {
		ps := c.proc(r.op.Proc)
		if !r.poIn {
			ps.srcFinal++
		}
		if !r.poOut {
			ps.snkFinal++
		}
		if r.op.IsStore() {
			bs := c.block(r.op.Block)
			if !r.stIn {
				bs.srcFinal++
				bs.orphan = r
			}
			if !r.stOut {
				bs.snkFinal++
			}
		} else if r.op.Value != trace.Bottom && !r.inhIn {
			return c.reject(Constraint4, []trace.Op{r.op}, "constraint 4: load %s has no inheritance edge at end of run", r.op)
		}
	}
	var procBuf [16]trace.ProcID
	for _, p := range inOrder(c.procs, procBuf[:0], cmpID[trace.ProcID]) {
		ps := c.procs[p]
		if !ps.seen {
			continue
		}
		if ps.srcFinal != 1 || ps.snkFinal != 1 {
			return c.reject(Constraint2, nil, "constraint 2: processor P%d has %d first / %d last operations, want 1/1", p, ps.srcFinal, ps.snkFinal)
		}
	}
	var blockBuf [16]trace.BlockID
	for _, b := range inOrder(c.blocks, blockBuf[:0], cmpID[trace.BlockID]) {
		bs := c.blocks[b]
		if !bs.stores {
			continue
		}
		if bs.srcFinal != 1 || bs.snkFinal != 1 {
			return c.reject(Constraint3, nil, "constraint 3: block B%d has %d first / %d last stores, want 1/1", b, bs.srcFinal, bs.snkFinal)
		}
	}
	if ob := c.firstUndischarged(); ob != nil {
		return c.reject(Constraint5a, []trace.Op{ob.load.op, ob.target.op}, "constraint 5a: load %s never produced a forced edge to %s", ob.load.op, ob.target.op)
	}
	var bottomBuf [16][2]int
	for _, key := range inOrder(c.bottoms, bottomBuf[:0], cmpPair) {
		bo := c.bottoms[key]
		b := trace.BlockID(key[1])
		bs := c.blocks[b]
		if bs == nil || !bs.stores {
			continue // no store to the block: constraint 5(b) vacuous
		}
		first := bs.orphan
		if first == nil {
			return c.reject(ConstraintInternal, nil, "internal: block B%d has stores but no first store", b)
		}
		if !bo.targets[first] {
			return c.reject(Constraint5b, []trace.Op{bo.load.op}, "constraint 5b: ⊥-load %s has no forced edge to block B%d's first store", bo.load.op, b)
		}
	}
	return nil
}

// FinishDry reports whether Finish would accept right now, without
// mutating the checker: the end-of-stream totality and obligation checks
// run against temporary counters. The model checker calls this once per
// discovered product state (every run prefix is a run), so it must be
// allocation-light and side-effect free.
func (c *Checker) FinishDry() error {
	if c.rejected != nil {
		return c.rejected
	}
	type counts struct{ src, snk int }
	procs := make(map[trace.ProcID]counts, len(c.procs))
	blocks := make(map[trace.BlockID]counts, len(c.blocks))
	orphan := make(map[trace.BlockID]*rec, len(c.blocks))
	for p, ps := range c.procs {
		procs[p] = counts{src: ps.srcFinal, snk: ps.snkFinal}
	}
	for b, bs := range c.blocks {
		blocks[b] = counts{src: bs.srcFinal, snk: bs.snkFinal}
		if bs.orphan != nil {
			orphan[b] = bs.orphan
		}
	}
	for _, r := range c.activeRecs() {
		pc := procs[r.op.Proc]
		if !r.poIn {
			pc.src++
		}
		if !r.poOut {
			pc.snk++
		}
		procs[r.op.Proc] = pc
		if r.op.IsStore() {
			bc := blocks[r.op.Block]
			if !r.stIn {
				bc.src++
				orphan[r.op.Block] = r
			}
			if !r.stOut {
				bc.snk++
			}
			blocks[r.op.Block] = bc
		} else if r.op.Value != trace.Bottom && !r.inhIn {
			return dryReject(Constraint4, []trace.Op{r.op}, "constraint 4: load %s has no inheritance edge at end of run", r.op)
		}
	}
	var procBuf [16]trace.ProcID
	for _, p := range inOrder(c.procs, procBuf[:0], cmpID[trace.ProcID]) {
		if !c.procs[p].seen {
			continue
		}
		if pc := procs[p]; pc.src != 1 || pc.snk != 1 {
			return dryReject(Constraint2, nil, "constraint 2: processor P%d has %d first / %d last operations, want 1/1", p, pc.src, pc.snk)
		}
	}
	var blockBuf [16]trace.BlockID
	for _, b := range inOrder(c.blocks, blockBuf[:0], cmpID[trace.BlockID]) {
		if !c.blocks[b].stores {
			continue
		}
		if bc := blocks[b]; bc.src != 1 || bc.snk != 1 {
			return dryReject(Constraint3, nil, "constraint 3: block B%d has %d first / %d last stores, want 1/1", b, bc.src, bc.snk)
		}
	}
	if ob := c.firstUndischarged(); ob != nil {
		return dryReject(Constraint5a, []trace.Op{ob.load.op, ob.target.op}, "constraint 5a: load %s never produced a forced edge to %s", ob.load.op, ob.target.op)
	}
	var bottomBuf [16][2]int
	for _, key := range inOrder(c.bottoms, bottomBuf[:0], cmpPair) {
		bo := c.bottoms[key]
		b := trace.BlockID(key[1])
		bs := c.blocks[b]
		if bs == nil || !bs.stores {
			continue
		}
		first := orphan[b]
		if first == nil {
			return dryReject(ConstraintInternal, nil, "internal: block B%d has stores but no first store", b)
		}
		if !bo.targets[first] {
			return dryReject(Constraint5b, []trace.Op{bo.load.op}, "constraint 5b: ⊥-load %s has no forced edge to block B%d's first store", bo.load.op, b)
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

// firstUndischarged returns the undischarged armed obligation whose carrier
// load, then target store, is oldest, or nil when all are discharged.
func (c *Checker) firstUndischarged() *oblig {
	var first *oblig
	for ob := range c.armed {
		if ob.done {
			continue
		}
		if first == nil || ob.load.seq < first.load.seq ||
			ob.load.seq == first.load.seq && ob.target.seq < first.target.seq {
			first = ob
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

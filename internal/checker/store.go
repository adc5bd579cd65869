package checker

import "scverify/internal/trace"

// arena holds values addressed by int32 index. Index 0 is never handed
// out, so 0 names nothing; released slots are zeroed and reused first.
type arena[T any] struct {
	items []T
	free  []int32
}

func newArena[T any]() arena[T] { return arena[T]{items: make([]T, 1)} }

// alloc returns the index of a zero slot. It may move items.
func (a *arena[T]) alloc() int32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		return i
	}
	var zero T
	a.items = append(a.items, zero)
	return int32(len(a.items) - 1)
}

func (a *arena[T]) release(i int32) {
	var zero T
	a.items[i] = zero
	a.free = append(a.free, i)
}

func (a *arena[T]) copyFrom(src *arena[T]) {
	a.items = append(a.items[:0], src.items...)
	a.free = append(a.free[:0], src.free...)
}

// Records are reference-counted. Every record index stored in a record
// (inhFrom, stSucc, a forced list), an obligation (load, target), a ⊥-load
// obligation (load, targets) or a block orphan holds one reference; an
// obligation's store field does not, because the store's own pending list
// holds the obligation. A record is reclaimed once it is retired and
// unreferenced, so the arena — and every copy of it — carries exactly the
// records a future symbol or the state key can reach.
//
// Counting never meets a cycle among retired records: deactivate drops a
// load's inhFrom and a store's stSucc and its retired carriers, after which
// every reference between retired records follows a forced, ST-order or
// inheritance edge of the constraint graph, which the cycle checker keeps
// acyclic until it rejects.

// hold takes a reference to record i and returns i.
func (c *Checker) hold(i int32) int32 {
	if i != 0 {
		c.rec(i).refs++
	}
	return i
}

// drop releases a reference to record i.
func (c *Checker) drop(i int32) {
	if i == 0 {
		return
	}
	c.rec(i).refs--
	c.reclaim(i)
}

// reclaim frees record i, and the references it holds, once it is retired
// and unreferenced.
func (c *Checker) reclaim(i int32) {
	r := c.rec(i)
	if r.active || r.refs > 0 {
		return
	}
	inh, succ, forced, pending := r.inhFrom, r.stSucc, r.forced, r.pending
	c.recs.release(i)
	c.drop(inh)
	c.drop(succ)
	c.dropList(i, forced)
	for o := pending; o != 0; {
		next := c.obligs.items[o].next
		c.freeOblig(o)
		o = next
	}
}

// freeOblig releases an obligation already unlinked from its store.
func (c *Checker) freeOblig(o int32) {
	ob := c.obligs.items[o]
	if ob.armed() {
		c.disarm(o)
	}
	delete(c.index, indexKey(ob.store, int(ob.proc)))
	c.obligs.release(o)
	c.drop(ob.load)
	c.drop(ob.target)
}

// unlinkSlot removes obligation o from its store's pending list and frees
// it.
func (c *Checker) unlinkSlot(o int32) {
	ob := &c.obligs.items[o]
	if ob.prev != 0 {
		c.obligs.items[ob.prev].next = ob.next
	} else {
		c.rec(ob.store).pending = ob.next
	}
	if ob.next != 0 {
		c.obligs.items[ob.next].prev = ob.prev
	}
	c.freeOblig(o)
}

// indexKey is the index key of record r's entry for of: a member record
// of a load's list, or a processor of a store's slots.
func indexKey(r int32, of int) [2]int { return [2]int{int(r), of} }

// slot returns store s's obligation slot for processor p, or 0.
func (c *Checker) slot(s int32, p trace.ProcID) int32 { return c.index[indexKey(s, int(p))] }

// arm puts obligation o, just armed, on the armed list.
func (c *Checker) arm(o int32) {
	c.obligs.items[o].nextArmed = c.armed
	if c.armed != 0 {
		c.obligs.items[c.armed].prevArmed = o
	}
	c.armed = o
}

// disarm takes obligation o off the armed list.
func (c *Checker) disarm(o int32) {
	ob := &c.obligs.items[o]
	if ob.prevArmed != 0 {
		c.obligs.items[ob.prevArmed].nextArmed = ob.nextArmed
	} else {
		c.armed = ob.nextArmed
	}
	if ob.nextArmed != 0 {
		c.obligs.items[ob.nextArmed].prevArmed = ob.prevArmed
	}
	ob.prevArmed, ob.nextArmed = 0, 0
}

// has reports whether owner's record list contains record i.
func (c *Checker) has(owner, i int32) bool { return c.index[indexKey(owner, int(i))] != 0 }

// addLink returns owner's record list, head, with record i added, holding
// a reference to it.
func (c *Checker) addLink(owner, head, i int32) int32 {
	if c.has(owner, i) {
		return head
	}
	l := c.links.alloc()
	c.links.items[l] = link{rec: c.hold(i), next: head}
	if head != 0 {
		c.links.items[head].prev = l
	}
	c.index[indexKey(owner, int(i))] = l
	return l
}

// removeLink returns owner's record list, head, without record i.
func (c *Checker) removeLink(owner, head, i int32) int32 {
	l := c.index[indexKey(owner, int(i))]
	if l == 0 {
		return head
	}
	delete(c.index, indexKey(owner, int(i)))
	cell := c.links.items[l]
	if cell.prev != 0 {
		c.links.items[cell.prev].next = cell.next
	} else {
		head = cell.next
	}
	if cell.next != 0 {
		c.links.items[cell.next].prev = cell.prev
	}
	c.links.release(l)
	c.drop(i)
	return head
}

// dropList frees owner's record list.
func (c *Checker) dropList(owner, head int32) {
	for l := head; l != 0; {
		cell := c.links.items[l]
		delete(c.index, indexKey(owner, int(cell.rec)))
		c.links.release(l)
		c.drop(cell.rec)
		l = cell.next
	}
}

// CopyFrom overwrites c with a deep copy of src, reusing c's storage: the
// state is slices of values and maps of values, so the copy is slice
// copies and map refills, and a warm destination allocates nothing.
func (c *Checker) CopyFrom(src *Checker) {
	if c == src {
		return
	}
	c.cyc.CopyFrom(&src.cyc)
	c.k, c.params, c.noValues = src.k, src.params, src.noValues
	c.owner = append(c.owner[:0], src.owner...)
	c.seq = src.seq
	c.recs.copyFrom(&src.recs)
	c.obligs.copyFrom(&src.obligs)
	c.links.copyFrom(&src.links)
	c.armed = src.armed
	c.index = refill(c.index, src.index)
	c.procs = refill(c.procs, src.procs)
	c.blocks = refill(c.blocks, src.blocks)
	c.bottoms = refill(c.bottoms, src.bottoms)
	c.symbols, c.stepping, c.witness, c.rejected = src.symbols, src.stepping, src.witness, src.rejected
}

// Clone returns a deep copy of the checker; stepping either never affects
// the other. The model checker clones the states it keeps, and scserve
// clones a session's checker at each checkpoint.
func (c *Checker) Clone() *Checker {
	out := new(Checker)
	out.CopyFrom(c)
	return out
}

// refill returns dst holding exactly src's entries, made when dst is nil.
func refill[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		dst = make(map[K]V, len(src))
	}
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

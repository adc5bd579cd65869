package observer

import (
	"fmt"

	"scverify/internal/descriptor"
	"scverify/internal/protocol"
	"scverify/internal/trace"
)

// Step observes one executed protocol transition and emits the descriptor
// symbols it induces. Transitions must be fed in execution order.
func (o *Observer) Step(t protocol.Transition) error {
	if o.err != nil {
		return o.err
	}
	var err error
	switch {
	case !t.Action.IsMem():
		err = o.stepInternal(t)
	case t.Action.Op.IsStore():
		err = o.stepStore(t)
	default:
		err = o.stepLoad(t)
	}
	if err != nil {
		return err
	}
	// Errors raised inside release emissions do not propagate through the
	// void helpers; surface them at the step boundary.
	return o.err
}

// stepInternal applies copy tracking labels to the location map and lets
// the ST-order generator observe the action.
func (o *Observer) stepInternal(t protocol.Transition) error {
	o.applyCopies(t.Copies)
	return o.applyUpdate(o.gen.OnInternal(t.Action))
}

// applyCopies moves values between locations per the copy tracking labels.
// All copies read the same snapshot of the location map: the pre-
// transition map for internal actions, and the post-operation map for
// copies attached to memory operations (so a write-through store's copy
// from its freshly written line propagates the new value).
func (o *Observer) applyCopies(copies []protocol.Copy) {
	if len(copies) == 0 {
		return
	}
	var preBuf [32]int32
	pre := append(preBuf[:0], o.locToNode...)
	for _, cp := range copies {
		if cp.Dst == cp.Src {
			continue
		}
		var src int32
		if cp.Src != 0 {
			src = pre[cp.Src]
		}
		old := o.locToNode[cp.Dst]
		if old == src {
			continue
		}
		o.locToNode[cp.Dst] = src
		if src != 0 {
			o.nodes[src].locRefs++
		}
		if old != 0 {
			o.decLocRef(old)
		}
	}
}

// stepStore adds the store node, its program-order edge, installs the
// store's value in its location, and applies whatever ST-order information
// the generator derives.
func (o *Observer) stepStore(t protocol.Transition) error {
	op := *t.Action.Op
	o.stats.Ops++
	o.traceLen++
	id, err := o.newNode(op)
	if err != nil {
		return err
	}
	if err := o.emitProgramOrder(id); err != nil {
		return err
	}
	if t.Loc < 1 || t.Loc > len(o.locToNode)-1 {
		return o.fail(fmt.Errorf("observer: store %s has tracking label %d outside 1..%d", op, t.Loc, len(o.locToNode)-1))
	}
	old := o.locToNode[t.Loc]
	o.locToNode[t.Loc] = id
	o.nodes[id].locRefs++
	if old != 0 {
		o.decLocRef(old)
	}
	// Copies attached to a store read the post-operation map: a write-
	// through store propagates its own fresh value to further locations in
	// the same transition.
	o.applyCopies(t.Copies)
	// The generator must eventually order this store; keep it addressable
	// until its outgoing ST-order edge is emitted.
	o.pin(id)
	return o.applyUpdate(o.gen.OnStore(o.nodes[id].h, op))
}

// stepLoad adds the load node, its program-order edge, and its inheritance
// edge (from the tracking label), plus any immediately-determined forced
// edge.
func (o *Observer) stepLoad(t protocol.Transition) error {
	op := *t.Action.Op
	o.stats.Ops++
	o.traceLen++
	id, err := o.newNode(op)
	if err != nil {
		return err
	}
	if err := o.emitProgramOrder(id); err != nil {
		return err
	}
	if t.Loc < 1 || t.Loc > len(o.locToNode)-1 {
		return o.fail(fmt.Errorf("observer: load %s has tracking label %d outside 1..%d", op, t.Loc, len(o.locToNode)-1))
	}
	src := o.locToNode[t.Loc]

	if op.Value == trace.Bottom {
		if src != 0 {
			return o.fail(fmt.Errorf("observer: %s read location %d which holds %s (tracking labels inconsistent)", op, t.Loc, o.nodes[src].op))
		}
		if first := o.firstSt[op.Block-1]; first != 0 {
			return o.send(descriptor.Edge{From: int(id), To: int(first), Label: descriptor.Forced})
		}
		slot := &o.bottoms[o.bottomSlot(op)]
		if prev := *slot; prev != 0 {
			o.unpin(prev)
		}
		*slot = id
		o.pin(id)
		return nil
	}

	if src == 0 {
		return o.fail(fmt.Errorf("observer: %s read location %d which holds no store's value (tracking labels inconsistent)", op, t.Loc))
	}
	s := &o.nodes[src]
	if s.op.Block != op.Block || s.op.Value != op.Value {
		return o.fail(fmt.Errorf("observer: %s read location %d which holds %s (tracking labels inconsistent)", op, t.Loc, s.op))
	}
	if err := o.send(descriptor.Edge{From: int(src), To: int(id), Label: descriptor.Inh}); err != nil {
		return err
	}
	if s.ordered {
		// The inherited-from store is already ordered: the forced edge is
		// determined now and the load carries no pending obligation.
		return o.send(descriptor.Edge{From: int(id), To: int(s.succ), Label: descriptor.Forced})
	}
	slot := &o.pendingOf(src)[op.Proc-1]
	if prev := *slot; prev != 0 {
		o.unpin(prev)
	}
	*slot = id
	o.pin(id)
	return nil
}

// emitProgramOrder links the node to its processor's previous operation.
func (o *Observer) emitProgramOrder(id int32) error {
	last := &o.lastOp[o.nodes[id].op.Proc-1]
	if prev := *last; prev != 0 {
		if err := o.send(descriptor.Edge{From: int(prev), To: int(id), Label: descriptor.PO}); err != nil {
			return err
		}
		o.unpin(prev)
	}
	*last = id
	o.pin(id)
	return nil
}

// applyUpdate emits the ST-order edges and first-store consequences the
// generator determined: the edges themselves, the forced edges they arm,
// and the forced edges owed by pending ⊥-loads.
func (o *Observer) applyUpdate(u Update) error {
	for _, e := range u.Edges {
		from, to := o.byHandle(e.From), o.byHandle(e.To)
		if from == 0 || to == 0 {
			return o.fail(fmt.Errorf("observer: ST-order generator referenced a retired node (%d→%d)", e.From, e.To))
		}
		f := &o.nodes[from]
		if f.ordered {
			return o.fail(fmt.Errorf("observer: ST-order generator ordered %s twice", f.op))
		}
		if err := o.send(descriptor.Edge{From: int(from), To: int(to), Label: descriptor.STo}); err != nil {
			return err
		}
		f.ordered, f.succ, f.succH = true, to, e.To
		o.nodes[to].stIn = true
		// Late inheritors of `from` (possible while its value still sits in
		// some location) will need forced edges to `to`: keep `to`
		// addressable while `from` is inh-active.
		if f.locRefs > 0 {
			f.succPinned = true
			o.pin(to)
		}
		// Pending inheritors owe their forced edges now, emitted in
		// processor order so the stream is a deterministic function of the
		// run.
		for _, slot := range o.pendingOf(from) {
			if slot == 0 {
				continue
			}
			if err := o.send(descriptor.Edge{From: int(slot), To: int(to), Label: descriptor.Forced}); err != nil {
				return err
			}
			o.unpin(slot)
		}
		clear(o.pendingOf(from))
		// The store is ordered: release the generator's pin.
		o.unpin(from)
	}
	for _, fs := range u.Firsts {
		id := o.byHandle(fs.Node)
		if id == 0 {
			return o.fail(fmt.Errorf("observer: first store of block B%d is a retired node", fs.Block))
		}
		first := &o.firstSt[fs.Block-1]
		if *first != 0 {
			return o.fail(fmt.Errorf("observer: first store of block B%d reported twice", fs.Block))
		}
		*first = id
		o.pin(id) // late ⊥-loads may still need a forced edge to it
		for p := 1; p <= o.procs; p++ {
			slot := &o.bottoms[o.bottomSlot(trace.Op{Proc: trace.ProcID(p), Block: fs.Block})]
			if *slot == 0 {
				continue
			}
			if err := o.send(descriptor.Edge{From: int(*slot), To: int(id), Label: descriptor.Forced}); err != nil {
				return err
			}
			o.unpin(*slot)
			*slot = 0
		}
	}
	return nil
}

// Finish completes the run: the generator resolves any stores it has not
// yet serialized, and the induced edges are emitted.
func (o *Observer) Finish() error {
	if o.err != nil {
		return o.err
	}
	return o.applyUpdate(o.gen.Finish())
}

// ObserveRun replays a recorded run through a fresh observer, returning
// the collected descriptor stream.
func ObserveRun(run *protocol.Run, gen STOrderGenerator, cfg Config) (descriptor.Stream, *Observer, error) {
	var stream descriptor.Stream
	o := New(run.Protocol, gen, cfg, func(sym descriptor.Symbol) error {
		stream = append(stream, sym)
		return nil
	})
	for _, step := range run.Steps {
		if err := o.Step(step.Transition); err != nil {
			return stream, o, err
		}
	}
	if err := o.Finish(); err != nil {
		return stream, o, err
	}
	return stream, o, nil
}

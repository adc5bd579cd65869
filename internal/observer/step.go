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

// stepInternal applies copy tracking labels to the location map and, on
// the generator's SerializeOn action, serializes the oldest queued store of
// the processor the action names. Naming a processor with nothing queued,
// or none of 1..p, serializes nothing.
func (o *Observer) stepInternal(t protocol.Transition) error {
	o.applyCopies(t.Copies)
	a := t.Action
	if o.gen.SerializeOn == "" || a.Name != o.gen.SerializeOn || len(a.Args) < 1 {
		return nil
	}
	for i, id := range o.queue {
		if int(o.nodes[id].op.Proc) == a.Args[0] {
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			return o.serializeNow(id)
		}
	}
	return nil
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
// store's value in its location, and serializes the store or queues it.
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
	if o.gen.SerializeOn != "" {
		o.queue = append(o.queue, id)
		return nil
	}
	return o.serializeNow(id)
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

// serialize makes store id its block's last serialized store. After a
// previous store it emits their ST-order edge, the forced edges that edge
// arms, and releases the previous store's generator pin. Otherwise id is
// the block's first store: serialize records and pins it and reports
// true, and settleFirst then emits the forced edges it is owed.
func (o *Observer) serialize(id int32) (bool, error) {
	b := o.nodes[id].op.Block
	from := o.lastSt[b-1]
	o.lastSt[b-1] = id
	if from == 0 {
		o.firstSt[b-1] = id
		o.pin(id) // late ⊥-loads may still need a forced edge to it
		return true, nil
	}
	if err := o.send(descriptor.Edge{From: int(from), To: int(id), Label: descriptor.STo}); err != nil {
		return false, err
	}
	f := &o.nodes[from]
	f.ordered, f.succ, f.succH = true, id, o.nodes[id].h
	o.nodes[id].stIn = true
	// Late inheritors of `from` (possible while its value still sits in
	// some location) will need forced edges to `id`: keep `id` addressable
	// while `from` is inh-active.
	if f.locRefs > 0 {
		f.succPinned = true
		o.pin(id)
	}
	// Pending inheritors owe their forced edges now, emitted in processor
	// order so the stream is a deterministic function of the run.
	for _, slot := range o.pendingOf(from) {
		if slot == 0 {
			continue
		}
		if err := o.send(descriptor.Edge{From: int(slot), To: int(id), Label: descriptor.Forced}); err != nil {
			return false, err
		}
		o.unpin(slot)
	}
	clear(o.pendingOf(from))
	// The store is ordered: release the generator's pin.
	o.unpin(from)
	return false, nil
}

// settleFirst emits the forced edges the pending ⊥-loads of first store
// id's block owe it, in processor order.
func (o *Observer) settleFirst(id int32) error {
	b := o.nodes[id].op.Block
	for p := 1; p <= o.procs; p++ {
		slot := &o.bottoms[o.bottomSlot(trace.Op{Proc: trace.ProcID(p), Block: b})]
		if *slot == 0 {
			continue
		}
		if err := o.send(descriptor.Edge{From: int(*slot), To: int(id), Label: descriptor.Forced}); err != nil {
			return err
		}
		o.unpin(*slot)
		*slot = 0
	}
	return nil
}

// serializeNow serializes store id and settles it if it is first.
func (o *Observer) serializeNow(id int32) error {
	if first, err := o.serialize(id); !first || err != nil {
		return err
	}
	return o.settleFirst(id)
}

// Finish completes the run: it serializes the stores still queued,
// processors in index order and each FIFO in order, emitting every
// ST-order edge before any first store's forced edges.
func (o *Observer) Finish() error {
	if o.err != nil {
		return o.err
	}
	var buf [8]int32
	firsts := buf[:0]
	for p := 1; p <= o.procs; p++ {
		for _, id := range o.queue {
			if int(o.nodes[id].op.Proc) != p {
				continue
			}
			first, err := o.serialize(id)
			if err != nil {
				return err
			}
			if first {
				firsts = append(firsts, id)
			}
		}
	}
	o.queue = o.queue[:0]
	for _, id := range firsts {
		if err := o.settleFirst(id); err != nil {
			return err
		}
	}
	return nil
}

// ObserveRun replays a recorded run through a fresh observer, returning
// the collected descriptor stream.
func ObserveRun(run *protocol.Run, gen Generator, cfg Config) (descriptor.Stream, *Observer, error) {
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

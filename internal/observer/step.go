package observer

import (
	"fmt"
	"slices"

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
	var preBuf [32]*onode
	pre := append(preBuf[:0], o.locToNode...)
	for _, cp := range copies {
		if cp.Dst == cp.Src {
			continue
		}
		var src *onode
		if cp.Src != 0 {
			src = pre[cp.Src]
		}
		old := o.locToNode[cp.Dst]
		if old == src {
			continue
		}
		o.locToNode[cp.Dst] = src
		if src != nil {
			src.locRefs++
		}
		if old != nil {
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
	n, err := o.newNode(op)
	if err != nil {
		return err
	}
	if err := o.emitProgramOrder(n); err != nil {
		return err
	}
	if t.Loc < 1 || t.Loc > len(o.locToNode)-1 {
		return o.fail(fmt.Errorf("observer: store %s has tracking label %d outside 1..%d", op, t.Loc, len(o.locToNode)-1))
	}
	old := o.locToNode[t.Loc]
	o.locToNode[t.Loc] = n
	n.locRefs++
	if old != nil {
		o.decLocRef(old)
	}
	// Copies attached to a store read the post-operation map: a write-
	// through store propagates its own fresh value to further locations in
	// the same transition.
	o.applyCopies(t.Copies)
	// The generator must eventually order this store; keep it addressable
	// until its outgoing ST-order edge is emitted.
	o.pin(n)
	return o.applyUpdate(o.gen.OnStore(n.h, op))
}

// stepLoad adds the load node, its program-order edge, and its inheritance
// edge (from the tracking label), plus any immediately-determined forced
// edge.
func (o *Observer) stepLoad(t protocol.Transition) error {
	op := *t.Action.Op
	o.stats.Ops++
	o.traceLen++
	n, err := o.newNode(op)
	if err != nil {
		return err
	}
	if err := o.emitProgramOrder(n); err != nil {
		return err
	}
	if t.Loc < 1 || t.Loc > len(o.locToNode)-1 {
		return o.fail(fmt.Errorf("observer: load %s has tracking label %d outside 1..%d", op, t.Loc, len(o.locToNode)-1))
	}
	src := o.locToNode[t.Loc]

	if op.Value == trace.Bottom {
		if src != nil {
			return o.fail(fmt.Errorf("observer: %s read location %d which holds %s (tracking labels inconsistent)", op, t.Loc, src.op))
		}
		if first, known := o.firstSt[op.Block]; known {
			return o.send(descriptor.Edge{From: n.id, To: first.id, Label: descriptor.Forced})
		}
		key := [2]int{int(op.Proc), int(op.Block)}
		if prev, ok := o.bottoms[key]; ok {
			o.unpin(prev)
		}
		o.bottoms[key] = n
		o.pin(n)
		return nil
	}

	if src == nil {
		return o.fail(fmt.Errorf("observer: %s read location %d which holds no store's value (tracking labels inconsistent)", op, t.Loc))
	}
	if src.op.Block != op.Block || src.op.Value != op.Value {
		return o.fail(fmt.Errorf("observer: %s read location %d which holds %s (tracking labels inconsistent)", op, t.Loc, src.op))
	}
	if err := o.send(descriptor.Edge{From: src.id, To: n.id, Label: descriptor.Inh}); err != nil {
		return err
	}
	if src.stSucc != nil {
		// The inherited-from store is already ordered: the forced edge is
		// determined now and the load carries no pending obligation.
		return o.send(descriptor.Edge{From: n.id, To: src.stSucc.id, Label: descriptor.Forced})
	}
	if prev, ok := src.pending[op.Proc]; ok {
		o.unpin(prev)
	}
	src.pending[op.Proc] = n
	o.pin(n)
	return nil
}

// emitProgramOrder links the node to its processor's previous operation.
func (o *Observer) emitProgramOrder(n *onode) error {
	if prev, ok := o.lastOp[n.op.Proc]; ok {
		if err := o.send(descriptor.Edge{From: prev.id, To: n.id, Label: descriptor.PO}); err != nil {
			return err
		}
		o.unpin(prev)
	}
	o.lastOp[n.op.Proc] = n
	o.pin(n)
	return nil
}

// applyUpdate emits the ST-order edges and first-store consequences the
// generator determined: the edges themselves, the forced edges they arm,
// and the forced edges owed by pending ⊥-loads.
func (o *Observer) applyUpdate(u Update) error {
	for _, e := range u.Edges {
		from, okF := o.nodes[e.From]
		to, okT := o.nodes[e.To]
		if !okF || !okT {
			return o.fail(fmt.Errorf("observer: ST-order generator referenced a retired node (%d→%d)", e.From, e.To))
		}
		if from.stSucc != nil {
			return o.fail(fmt.Errorf("observer: ST-order generator ordered %s twice", from.op))
		}
		if err := o.send(descriptor.Edge{From: from.id, To: to.id, Label: descriptor.STo}); err != nil {
			return err
		}
		from.stSucc = to
		to.stIn = true
		// Late inheritors of `from` (possible while its value still sits in
		// some location) will need forced edges to `to`: keep `to`
		// addressable while `from` is inh-active.
		if from.locRefs > 0 {
			from.succPinned = true
			o.pin(to)
		}
		// Pending inheritors owe their forced edges now, emitted in
		// processor order so the stream is a deterministic function of the
		// run.
		var procBuf [16]int
		procs := procBuf[:0]
		for p := range from.pending {
			procs = append(procs, int(p))
		}
		slices.Sort(procs)
		for _, p := range procs {
			load := from.pending[trace.ProcID(p)]
			if err := o.send(descriptor.Edge{From: load.id, To: to.id, Label: descriptor.Forced}); err != nil {
				return err
			}
			o.unpin(load)
			delete(from.pending, trace.ProcID(p))
		}
		// The store is ordered: release the generator's pin.
		o.unpin(from)
	}
	for _, f := range u.Firsts {
		n, ok := o.nodes[f.Node]
		if !ok {
			return o.fail(fmt.Errorf("observer: first store of block B%d is a retired node", f.Block))
		}
		if _, dup := o.firstSt[f.Block]; dup {
			return o.fail(fmt.Errorf("observer: first store of block B%d reported twice", f.Block))
		}
		o.firstSt[f.Block] = n
		o.pin(n) // late ⊥-loads may still need a forced edge to it
		var keyBuf [16][2]int
		for _, key := range o.sortedBottoms(keyBuf[:0]) {
			if trace.BlockID(key[1]) != f.Block {
				continue
			}
			load := o.bottoms[key]
			if err := o.send(descriptor.Edge{From: load.id, To: n.id, Label: descriptor.Forced}); err != nil {
				return err
			}
			o.unpin(load)
			delete(o.bottoms, key)
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

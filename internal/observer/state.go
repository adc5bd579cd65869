package observer

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// StateKey returns a canonical encoding of the observer's state. Nodes are
// named by their descriptor IDs, which are stable for a node's lifetime
// and drawn from a bounded pool, so the key space is finite — the property
// Theorem 4.1 needs for the observer to be a finite-state protocol, and
// the property the model checker needs to close the product state space.
func (o *Observer) StateKey() []byte {
	return o.AppendCanonicalKey(nil, nil)
}

// CanonicalKey returns the observer state key under the canonical ID
// renaming of CanonicalRename, so that states differing only in ID
// allocation history collide. The paired checker key must be renamed with
// the same permutation (see checker.Checker.StateKeyRenamed).
func (o *Observer) CanonicalKey(rename []int) []byte {
	return o.AppendCanonicalKey(nil, rename)
}

// AppendCanonicalKey appends CanonicalKey(rename) to dst (StateKey when
// rename is nil). It builds no maps and, for up to 64 live nodes,
// allocates nothing beyond growing dst.
func (o *Observer) AppendCanonicalKey(dst []byte, rename []int) []byte {
	if o.err != nil {
		return append(dst, 0xff)
	}
	mapID := func(id int32) uint64 {
		if rename == nil {
			return uint64(id)
		}
		return uint64(rename[id])
	}
	key := dst
	put := func(v uint64) { key = binary.AppendUvarint(key, v) }
	idOf := func(id int32) uint64 {
		if id == 0 {
			return 0
		}
		return mapID(id)
	}
	// count writes how many entries of ids are set.
	count := func(ids []int32) {
		n := 0
		for _, id := range ids {
			if id != 0 {
				n++
			}
		}
		put(uint64(n))
	}

	// Location map.
	for _, id := range o.locToNode[1:] {
		put(idOf(id))
	}

	// Live nodes sorted by (renamed) ID.
	var liveBuf [64]int32
	live := liveBuf[:0]
	for id := 1; id <= o.poolSize; id++ {
		if o.nodes[id].live {
			live = append(live, int32(id))
		}
	}
	slices.SortFunc(live, func(a, b int32) int { return cmp.Compare(mapID(a), mapID(b)) })
	put(uint64(len(live)))
	for _, id := range live {
		n := &o.nodes[id]
		flags := uint64(0)
		if n.stIn {
			flags |= 1
		}
		if n.succPinned {
			flags |= 2
		}
		put(mapID(id))
		put(uint64(n.op.Kind))
		put(uint64(n.op.Proc))
		put(uint64(n.op.Block))
		put(uint64(n.op.Value))
		put(flags)
		put(uint64(n.locRefs))
		put(uint64(n.pins))
		// A store's successor only influences future emissions while the
		// store is inh-active (succPinned); after that only the fact that
		// the store has been ordered matters, so a released successor must
		// not leak into the key.
		ordered, succ := uint64(0), uint64(0)
		if n.ordered {
			ordered = 1
			if n.succPinned {
				succ = idOf(n.succ)
			}
		}
		put(ordered)
		put(succ)
		pending := o.pendingOf(id)
		count(pending)
		for p, l := range pending {
			if l != 0 {
				put(uint64(p + 1))
				put(idOf(l))
			}
		}
	}

	// Program-order tails.
	count(o.lastOp)
	for p, id := range o.lastOp {
		if id != 0 {
			put(uint64(p + 1))
			put(idOf(id))
		}
	}

	// First stores.
	count(o.firstSt)
	for b, id := range o.firstSt {
		if id != 0 {
			put(uint64(b + 1))
			put(idOf(id))
		}
	}

	// Pending ⊥-loads, in (processor, block) order.
	count(o.bottoms)
	for i, id := range o.bottoms {
		if id != 0 {
			put(uint64(i/o.blocks + 1))
			put(uint64(i%o.blocks + 1))
			put(idOf(id))
		}
	}

	// Generator state: the queued stores of each processor in FIFO order,
	// then the last serialized store of each block.
	key = append(key, 0xfe)
	if o.gen.SerializeOn != "" {
		for p := 1; p <= o.procs; p++ {
			n := 0
			for _, id := range o.queue {
				if int(o.nodes[id].op.Proc) == p {
					n++
				}
			}
			put(uint64(n))
			for _, id := range o.queue {
				if int(o.nodes[id].op.Proc) == p {
					put(mapID(id))
					put(uint64(o.nodes[id].op.Block))
				}
			}
		}
	}
	for b, id := range o.lastSt {
		if id != 0 {
			put(uint64(b + 1))
			put(mapID(id))
		}
	}
	return key
}

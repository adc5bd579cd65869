package observer

import (
	"encoding/binary"
	"slices"

	"scverify/internal/trace"
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
// rename is nil). It builds no maps and, with a built-in generator and up
// to 64 live nodes, allocates nothing beyond growing dst.
func (o *Observer) AppendCanonicalKey(dst []byte, rename []int) []byte {
	if o.err != nil {
		return append(dst, 0xff)
	}
	mapID := func(id int) int {
		if rename == nil {
			return id
		}
		return rename[id]
	}
	key := dst
	put := func(v uint64) { key = binary.AppendUvarint(key, v) }
	idOf := func(n *onode) uint64 {
		if n == nil {
			return 0
		}
		return uint64(mapID(n.id))
	}

	// Location map.
	for _, n := range o.locToNode[1:] {
		put(idOf(n))
	}

	// Live nodes sorted by (renamed) ID.
	var liveBuf [64]*onode
	live := liveBuf[:0]
	for _, n := range o.nodes {
		live = append(live, n)
	}
	slices.SortFunc(live, func(a, b *onode) int { return mapID(a.id) - mapID(b.id) })
	put(uint64(len(live)))
	var idBuf [16]int
	for _, n := range live {
		flags := uint64(0)
		if n.stIn {
			flags |= 1
		}
		if n.succPinned {
			flags |= 2
		}
		put(uint64(mapID(n.id)))
		put(uint64(n.op.Kind))
		put(uint64(n.op.Proc))
		put(uint64(n.op.Block))
		put(uint64(n.op.Value))
		put(flags)
		put(uint64(n.locRefs))
		put(uint64(n.pins))
		// A store's successor pointer only influences future emissions while
		// the store is inh-active (succPinned); after that only the fact
		// that the store has been ordered matters, so a stale pointer to a
		// released successor must not leak into the key.
		ordered := uint64(0)
		succ := uint64(0)
		if n.stSucc != nil {
			ordered = 1
			if n.succPinned {
				succ = idOf(n.stSucc)
			}
		}
		put(ordered)
		put(succ)
		procs := idBuf[:0]
		if len(n.pending) > 0 {
			for p := range n.pending {
				procs = append(procs, int(p))
			}
		}
		slices.Sort(procs)
		put(uint64(len(procs)))
		for _, p := range procs {
			put(uint64(p))
			put(idOf(n.pending[trace.ProcID(p)]))
		}
	}

	// Program-order tails.
	procs := idBuf[:0]
	for p := range o.lastOp {
		procs = append(procs, int(p))
	}
	slices.Sort(procs)
	put(uint64(len(procs)))
	for _, p := range procs {
		put(uint64(p))
		put(idOf(o.lastOp[trace.ProcID(p)]))
	}

	// First stores.
	blocks := idBuf[:0]
	for b := range o.firstSt {
		blocks = append(blocks, int(b))
	}
	slices.Sort(blocks)
	put(uint64(len(blocks)))
	for _, b := range blocks {
		put(uint64(b))
		put(idOf(o.firstSt[trace.BlockID(b)]))
	}

	// Pending ⊥-loads.
	var bkeyBuf [16][2]int
	bkeys := o.sortedBottoms(bkeyBuf[:0])
	put(uint64(len(bkeys)))
	for _, k := range bkeys {
		put(uint64(k[0]))
		put(uint64(k[1]))
		put(idOf(o.bottoms[k]))
	}

	// Generator state, with the built-in generators' handles resolved to
	// descriptor IDs; other generators encode their own raw state.
	key = append(key, 0xfe)
	resolve := func(h NodeHandle) int {
		if n, ok := o.nodes[h]; ok {
			return mapID(n.id)
		}
		return 0
	}
	switch g := o.gen.(type) {
	case *RealTime:
		key = g.AppendStateKeyResolved(key, resolve)
	case *QueueGenerator:
		key = g.AppendStateKeyResolved(key, resolve)
	default:
		key = append(key, o.gen.StateKey()...)
	}
	return key
}

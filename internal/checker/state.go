package checker

import (
	"cmp"
	"encoding/binary"
	"slices"

	"scverify/internal/trace"
)

// StateKey returns a canonical encoding of the checker's state: two
// checkers with equal keys accept and reject identical symbol futures.
// The encoding names nodes canonically — active nodes by the smallest
// descriptor ID they hold, retired-but-referenced nodes by their relative
// age — so keys are independent of how many symbols have been consumed.
// Model checking over the protocol ⊗ observer ⊗ checker product uses this
// key to close the state space.
func (c *Checker) StateKey() []byte {
	return c.StateKeyRenamed(nil)
}

// StateKeyRenamed returns the state key under an ID permutation (raw ID →
// canonical ID); see observer.CanonicalRename. When a rename is supplied,
// the relative-age ranks of active nodes are omitted from the key: the
// rename is only available in product-mode exploration, where the symbol
// source is an observer whose program-order edges respect trace order by
// construction, so ages cannot influence acceptance.
func (c *Checker) StateKeyRenamed(rename []int) []byte {
	return c.AppendStateKeyRenamed(nil, rename)
}

// AppendStateKeyRenamed appends StateKeyRenamed(rename) to dst. It builds
// no maps and, for states of up to 64 nodes, allocates nothing beyond
// growing dst: the canonical numbering lives in stack-backed slices and
// every ordering is a sort of a small slice.
func (c *Checker) AppendStateKeyRenamed(dst []byte, rename []int) []byte {
	if c.rejected != nil {
		return append(dst, 0xff)
	}
	var activeBuf, retiredBuf [64]int32
	var minBuf [64]int
	actives, minIDs, retired := activeBuf[:0], minBuf[:0], retiredBuf[:0]

	// Canonical node numbering: active nodes first, ordered by minimum
	// (renamed) ID; then retired nodes referenced by live obligations,
	// ordered by relative age.
	for id := 1; id <= c.k+1; id++ {
		r := c.owner[id]
		if r == 0 {
			continue
		}
		m := mapID(rename, id)
		if i := slices.Index(actives, r); i < 0 {
			actives = append(actives, r)
			minIDs = append(minIDs, m)
		} else if m < minIDs[i] {
			minIDs[i] = m
		}
	}
	for i := 1; i < len(actives); i++ {
		for j := i; j > 0 && minIDs[j] < minIDs[j-1]; j-- {
			actives[j], actives[j-1] = actives[j-1], actives[j]
			minIDs[j], minIDs[j-1] = minIDs[j-1], minIDs[j]
		}
	}
	// Retired records need canonical numbers only in the adversarial key:
	// in renamed (product) mode they appear solely as structural
	// fingerprints at their reference sites.
	if rename == nil {
		add := func(rs ...int32) {
			for _, r := range rs {
				if r != 0 && slices.Index(actives, r) < 0 && slices.Index(retired, r) < 0 {
					retired = append(retired, r)
				}
			}
		}
		for o := c.armed; o != 0; o = c.obligs.items[o].nextArmed {
			ob := &c.obligs.items[o]
			add(ob.store, ob.load, ob.target)
		}
		for _, bo := range c.bottoms {
			add(bo.load)
			for l := bo.targets; l != 0; l = c.links.items[l].next {
				add(c.links.items[l].rec)
			}
		}
		for _, bs := range c.blocks {
			add(bs.orphan)
		}
		for _, i := range actives {
			r := c.rec(i)
			for o := r.pending; o != 0; o = c.obligs.items[o].next {
				add(c.obligs.items[o].load, c.obligs.items[o].target)
			}
			for l := r.forced; l != 0; l = c.links.items[l].next {
				add(c.links.items[l].rec)
			}
			add(r.inhFrom, r.stSucc)
		}
		slices.SortFunc(retired, func(a, b int32) int { return c.rec(a).seq - c.rec(b).seq })
	}
	n := canonNames{c: c, rename: rename, actives: actives, retired: retired}

	key := c.cyc.AppendStateKeyRenamed(dst, rename)
	key = append(key, 0xfe)

	// ID ownership map in canonical ID order.
	var slotBuf [64]uint64
	slots := slotBuf[:0]
	if c.k+2 > len(slotBuf) {
		slots = make([]uint64, 0, c.k+2)
	}
	slots = slots[:c.k+2]
	clear(slots)
	for id := 1; id <= c.k+1; id++ {
		if r := c.owner[id]; r != 0 {
			slots[mapID(rename, id)] = n.ref(r)
		}
	}
	for _, s := range slots[1:] {
		key = binary.AppendUvarint(key, s)
	}

	// Without a rename, active records carry a relative age rank (their
	// order matters for the trace-order side condition on program-order
	// edges against adversarial streams); see StateKeyRenamed for why the
	// rank is sound to omit in product mode.
	key = binary.AppendUvarint(key, uint64(len(actives)))
	for _, r := range actives {
		rank := 0
		if rename == nil {
			for _, o := range actives {
				if c.rec(o).seq < c.rec(r).seq {
					rank++
				}
			}
		}
		key = n.appendRec(key, r, rename == nil, rank)
	}
	// In renamed (product) mode retired records appear only as structural
	// fingerprints at their reference sites; their full serialization is
	// needed only for the adversarial-stream key.
	if rename == nil {
		key = binary.AppendUvarint(key, uint64(len(retired)))
		for _, r := range retired {
			key = n.appendRec(key, r, false, 0)
		}
	}

	// Armed obligations.
	var armBuf [32][5]int
	arms := armBuf[:0]
	for o := c.armed; o != 0; o = c.obligs.items[o].nextArmed {
		ob := &c.obligs.items[o]
		arms = append(arms, [5]int{int(n.ref(ob.store)), int(ob.proc), int(n.ref(ob.load)), int(n.ref(ob.target)), 0})
	}
	slices.SortFunc(arms, func(a, b [5]int) int {
		for i := range a {
			if a[i] != b[i] {
				return a[i] - b[i]
			}
		}
		return 0
	})
	key = binary.AppendUvarint(key, uint64(len(arms)))
	for _, a := range arms {
		for _, v := range a {
			key = binary.AppendUvarint(key, uint64(v))
		}
	}

	// Bottom-load obligations.
	var bkeyBuf [16][2]int
	bkeys := bkeyBuf[:0]
	for k := range c.bottoms {
		bkeys = append(bkeys, k)
	}
	slices.SortFunc(bkeys, cmpPair)
	key = binary.AppendUvarint(key, uint64(len(bkeys)))
	for _, bk := range bkeys {
		bo := c.bottoms[bk]
		key = binary.AppendUvarint(key, uint64(bk[0]))
		key = binary.AppendUvarint(key, uint64(bk[1]))
		key = binary.AppendUvarint(key, n.ref(bo.load))
		key = n.appendTargets(key, bo.targets)
	}

	// Per-processor and per-block finalization state.
	var idBuf [16]int
	ps := idBuf[:0]
	for p := range c.procs {
		ps = append(ps, int(p))
	}
	slices.Sort(ps)
	key = binary.AppendUvarint(key, uint64(len(ps)))
	for _, p := range ps {
		st := c.procs[trace.ProcID(p)]
		key = binary.AppendUvarint(key, uint64(p))
		key = binary.AppendUvarint(key, b2u(st.seen))
		key = binary.AppendUvarint(key, uint64(st.srcFinal))
		key = binary.AppendUvarint(key, uint64(st.snkFinal))
	}
	bs := idBuf[:0]
	for b := range c.blocks {
		bs = append(bs, int(b))
	}
	slices.Sort(bs)
	key = binary.AppendUvarint(key, uint64(len(bs)))
	for _, b := range bs {
		st := c.blocks[trace.BlockID(b)]
		key = binary.AppendUvarint(key, uint64(b))
		key = binary.AppendUvarint(key, b2u(st.stores))
		key = binary.AppendUvarint(key, uint64(st.srcFinal))
		key = binary.AppendUvarint(key, uint64(st.snkFinal))
		key = binary.AppendUvarint(key, n.ref(st.orphan))
	}
	return key
}

// canonNames is the canonical numbering of one state-key computation:
// active records by minimum renamed ID (canonical id = index+1), then, in
// the adversarial key, retired records by age.
type canonNames struct {
	c       *Checker
	rename  []int
	actives []int32
	retired []int32
}

func mapID(rename []int, id int) int {
	if rename == nil {
		return id
	}
	return rename[id]
}

// ref names a referenced record: its canonical id, or in renamed (product)
// mode a structural signature for a retired record, whose identity can no
// longer influence acceptance of observer-generated futures — only its
// shape can (see StateKeyRenamed). Unnumbered records are 0.
func (n *canonNames) ref(i int32) uint64 {
	if i == 0 {
		return 0
	}
	if r := n.c.rec(i); n.rename != nil && !r.active {
		f := uint64(1) << 40
		f |= uint64(r.op.Kind) << 36
		f |= uint64(r.op.Proc) << 28
		f |= uint64(r.op.Block) << 20
		f |= uint64(r.op.Value) << 12
		for i, b := range [...]bool{r.poIn, r.poOut, r.stIn, r.stOut, r.inhIn} {
			f |= b2u(b) << i
		}
		return f
	}
	if j := slices.Index(n.actives, i); j >= 0 {
		return uint64(j + 1)
	}
	if j := slices.Index(n.retired, i); j >= 0 {
		return uint64(len(n.actives) + j + 1)
	}
	return 0
}

func (n *canonNames) appendRec(key []byte, i int32, withSeqRank bool, rank int) []byte {
	r := n.c.rec(i)
	flags := uint64(0)
	for i, b := range [...]bool{r.active, r.poIn, r.poOut, r.stIn, r.stOut, r.inhIn} {
		flags |= b2u(b) << i
	}
	for _, v := range [...]uint64{uint64(r.op.Kind), uint64(r.op.Proc), uint64(r.op.Block), uint64(r.op.Value), flags, n.ref(r.inhFrom), n.ref(r.stSucc)} {
		key = binary.AppendUvarint(key, v)
	}
	if withSeqRank {
		key = binary.AppendUvarint(key, uint64(rank))
	}
	// Pending obligation slots, sorted by processor.
	var slotBuf [16]oblig
	slots := slotBuf[:0]
	for o := r.pending; o != 0; o = n.c.obligs.items[o].next {
		slots = append(slots, n.c.obligs.items[o])
	}
	slices.SortFunc(slots, func(a, b oblig) int { return cmp.Compare(a.proc, b.proc) })
	key = binary.AppendUvarint(key, uint64(len(slots)))
	for _, ob := range slots {
		for _, v := range [...]uint64{uint64(ob.proc), n.ref(ob.load), n.ref(ob.target), b2u(ob.done)} {
			key = binary.AppendUvarint(key, v)
		}
	}
	// Forced-edge targets, sorted by canonical id.
	return n.appendTargets(key, r.forced)
}

// appendTargets writes a record list as its sorted canonical ids.
func (n *canonNames) appendTargets(key []byte, head int32) []byte {
	var tsBuf [16]int
	ts := tsBuf[:0]
	for l := head; l != 0; l = n.c.links.items[l].next {
		ts = append(ts, int(n.ref(n.c.links.items[l].rec)))
	}
	slices.Sort(ts)
	key = binary.AppendUvarint(key, uint64(len(ts)))
	for _, t := range ts {
		key = binary.AppendUvarint(key, uint64(t))
	}
	return key
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func cmpPair(a, b [2]int) int {
	if a[0] != b[0] {
		return a[0] - b[0]
	}
	return a[1] - b[1]
}

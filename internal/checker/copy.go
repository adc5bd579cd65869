package checker

import (
	"scverify/internal/cycle"
	"scverify/internal/trace"
)

// A checker that has been the destination of CopyFrom owns a scratch: slabs
// of records, obligations and per-processor/per-block state, reused by
// every later CopyFrom and by the Steps that follow it. The model checker
// keeps one such checker per worker, copies each parent state in, steps it,
// and clones it compactly only when the successor is new, so duplicate
// successors cost no allocation. Clones never carry a scratch.
type scratch struct {
	recs    slab[pooledRec]
	obligs  slab[oblig]
	bottoms slab[pooledBottom]
	procs   slab[procState]
	blocks  slab[blockState]

	// Memo of the copy in progress, so shared pointers stay shared.
	recMemo ptrMemo[rec]
	obMemo  ptrMemo[oblig]
}

// ptrMemo maps the source pointers of a deep copy to their copies. It
// scans linearly while it holds at most linearMemo entries — model checker
// states and scserve checkpoints hold fewer records, and there the scan
// beats a map — and switches to a map beyond that, so larger states do not
// pay a quadratic scan.
type ptrMemo[T any] struct {
	src, dst []*T
	index    map[*T]*T // used once len(src) > linearMemo
}

const linearMemo = 32

// get and put take and return the memo by value, so a memo over stack
// buffers stays on the stack.
func (m ptrMemo[T]) get(p *T) *T {
	if len(m.src) > linearMemo {
		return m.index[p]
	}
	for i, s := range m.src {
		if s == p {
			return m.dst[i]
		}
	}
	return nil
}

func (m ptrMemo[T]) put(p, cp *T) ptrMemo[T] {
	m.src, m.dst = append(m.src, p), append(m.dst, cp)
	switch n := len(m.src); {
	case n == linearMemo+1:
		if m.index == nil {
			m.index = make(map[*T]*T, 2*n)
		}
		for i, s := range m.src {
			m.index[s] = m.dst[i]
		}
	case n > linearMemo+1:
		m.index[p] = cp
	}
	return m
}

// reset empties the memo, keeping its storage. It drops the source
// pointers so a reused memo does not keep parents alive.
func (m *ptrMemo[T]) reset() {
	if len(m.src) > linearMemo {
		clear(m.index)
	}
	clear(m.src)
	m.src, m.dst = m.src[:0], m.dst[:0]
}

// pooledRec is a slab record plus the maps it lends out, kept across reuse
// even while the record itself does not need them.
type pooledRec struct {
	rec
	forced  map[*rec]bool
	pending map[trace.ProcID]*oblig
}

type pooledBottom struct {
	bottomOblig
	targets map[*rec]bool
}

// slab hands out reusable *T values; reset makes every one available
// again. Values keep their previous contents until overwritten.
type slab[T any] struct {
	items []*T
	used  int
}

func (s *slab[T]) get() *T {
	if s.used == len(s.items) {
		s.items = append(s.items, new(T))
	}
	v := s.items[s.used]
	s.used++
	return v
}

func (s *scratch) reset() {
	s.recs.used, s.obligs.used, s.bottoms.used, s.procs.used, s.blocks.used = 0, 0, 0, 0, 0
	s.recMemo.reset()
	s.obMemo.reset()
}

// emptied returns m cleared, or a new map when m is nil.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	if len(m) > 0 {
		clear(m)
	}
	return m
}

// CopyFrom overwrites c with a deep copy of src, reusing c's storage: after
// the first few copies, copying and then stepping c allocates nothing for
// records, obligations or maps. c must not share records with src (a
// checker copied into itself is left unchanged).
func (c *Checker) CopyFrom(src *Checker) {
	if c == src {
		return
	}
	if c.pool == nil {
		c.pool = &scratch{}
	}
	c.pool.reset()
	c.k, c.params, c.noValues = src.k, src.params, src.noValues
	if c.cyc == nil {
		c.cyc = cycle.New(src.k)
	}
	c.cyc.CopyFrom(src.cyc)
	c.seq = src.seq
	c.symbols, c.stepping, c.witness, c.rejected = src.symbols, src.stepping, src.witness, src.rejected
	c.procs, c.blocks = emptied(c.procs), emptied(c.blocks)
	c.armed, c.bottoms = emptied(c.armed), emptied(c.bottoms)

	c.owner = append(c.owner[:0], src.owner...)
	for id, r := range src.owner {
		if r != nil {
			c.owner[id] = c.copyRec(r)
		}
	}
	for ob := range src.armed {
		c.armed[c.copyOblig(ob)] = true
	}
	for key, bo := range src.bottoms {
		cp := c.newBottom(c.copyRec(bo.load))
		if len(bo.targets) > 0 {
			for t := range bo.targets {
				cp.targets[c.copyRec(t)] = true
			}
		}
		c.bottoms[key] = cp
	}
	for p, ps := range src.procs {
		*c.proc(p) = *ps
	}
	for b, bs := range src.blocks {
		cp := c.block(b)
		*cp = *bs
		cp.orphan = c.copyRec(bs.orphan)
	}
}

func (c *Checker) copyRec(r *rec) *rec {
	if r == nil {
		return nil
	}
	if cp := c.pool.recMemo.get(r); cp != nil {
		return cp
	}
	cp := c.newRec(rec{
		seq: r.seq, op: r.op, active: r.active, idCount: r.idCount,
		poIn: r.poIn, poOut: r.poOut,
		stIn: r.stIn, stOut: r.stOut, inhIn: r.inhIn,
	}, r.forcedTo != nil, r.pending != nil)
	c.pool.recMemo = c.pool.recMemo.put(r, cp)
	cp.inhFrom = c.copyRec(r.inhFrom)
	cp.stSucc = c.copyRec(r.stSucc)
	cp.poNext = c.copyRec(r.poNext)
	if len(r.forcedTo) > 0 {
		for t := range r.forcedTo {
			cp.forcedTo[c.copyRec(t)] = true
		}
	}
	if len(r.pending) > 0 {
		for p, ob := range r.pending {
			cp.pending[p] = c.copyOblig(ob)
		}
	}
	return cp
}

func (c *Checker) copyOblig(ob *oblig) *oblig {
	if ob == nil {
		return nil
	}
	if cp := c.pool.obMemo.get(ob); cp != nil {
		return cp
	}
	cp := c.newOblig(oblig{proc: ob.proc, done: ob.done})
	c.pool.obMemo = c.pool.obMemo.put(ob, cp)
	cp.store = c.copyRec(ob.store)
	cp.load = c.copyRec(ob.load)
	cp.target = c.copyRec(ob.target)
	return cp
}

// newRec returns a record holding v (whose maps must be nil), with empty
// forced-edge and pending maps as requested; scratch checkers draw it from
// their slab.
func (c *Checker) newRec(v rec, forced, pending bool) *rec {
	var r *rec
	if c.pool == nil {
		r = new(rec)
		*r = v
		if forced {
			r.forcedTo = make(map[*rec]bool)
		}
		if pending {
			r.pending = make(map[trace.ProcID]*oblig)
		}
		return r
	}
	pr := c.pool.recs.get()
	pr.rec = v
	if forced {
		pr.forced = emptied(pr.forced)
		pr.rec.forcedTo = pr.forced
	}
	if pending {
		pr.pending = emptied(pr.pending)
		pr.rec.pending = pr.pending
	}
	return &pr.rec
}

func (c *Checker) newOblig(v oblig) *oblig {
	if c.pool == nil {
		ob := new(oblig)
		*ob = v
		return ob
	}
	ob := c.pool.obligs.get()
	*ob = v
	return ob
}

// newBottom returns a ⊥-load obligation for load with an empty target set.
func (c *Checker) newBottom(load *rec) *bottomOblig {
	if c.pool == nil {
		return &bottomOblig{load: load, targets: make(map[*rec]bool)}
	}
	pb := c.pool.bottoms.get()
	pb.targets = emptied(pb.targets)
	pb.bottomOblig = bottomOblig{load: load, targets: pb.targets}
	return &pb.bottomOblig
}

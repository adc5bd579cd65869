package checker

import "scverify/internal/trace"

// Clone returns a deep copy of the checker; stepping the copy never
// affects the original. The model checker clones at every branch of the
// product-state exploration.
func (c *Checker) Clone() *Checker {
	out := &Checker{
		k:        c.k,
		params:   c.params,
		noValues: c.noValues,
		cyc:      c.cyc.Clone(),
		owner:    make([]*rec, len(c.owner)),
		seq:      c.seq,
		procs:    make(map[trace.ProcID]*procState, len(c.procs)),
		blocks:   make(map[trace.BlockID]*blockState, len(c.blocks)),
		armed:    make(map[*oblig]bool, len(c.armed)),
		bottoms:  make(map[[2]int]*bottomOblig, len(c.bottoms)),
		symbols:  c.symbols,
		stepping: c.stepping,
		witness:  c.witness,
		rejected: c.rejected,
		pool:     nil, // clones are compact: no scratch storage
	}

	// Copy the rec graph, memoizing so shared pointers stay shared. The
	// memos start on the stack and switch to maps past linearMemo entries.
	var recSrcBuf, recDstBuf [linearMemo]*rec
	recMemo := ptrMemo[rec]{src: recSrcBuf[:0], dst: recDstBuf[:0]}
	var obSrcBuf, obDstBuf [linearMemo]*oblig
	obMemo := ptrMemo[oblig]{src: obSrcBuf[:0], dst: obDstBuf[:0]}
	var copyRec func(r *rec) *rec
	var copyOb func(ob *oblig) *oblig
	copyRec = func(r *rec) *rec {
		if r == nil {
			return nil
		}
		if cp := recMemo.get(r); cp != nil {
			return cp
		}
		cp := &rec{
			seq: r.seq, op: r.op, active: r.active, idCount: r.idCount,
			poIn: r.poIn, poOut: r.poOut,
			stIn: r.stIn, stOut: r.stOut, inhIn: r.inhIn,
		}
		recMemo = recMemo.put(r, cp)
		cp.inhFrom = copyRec(r.inhFrom)
		cp.stSucc = copyRec(r.stSucc)
		cp.poNext = copyRec(r.poNext)
		if r.forcedTo != nil {
			cp.forcedTo = make(map[*rec]bool, len(r.forcedTo))
			for t := range r.forcedTo {
				cp.forcedTo[copyRec(t)] = true
			}
		}
		if r.pending != nil {
			cp.pending = make(map[trace.ProcID]*oblig, len(r.pending))
			for p, ob := range r.pending {
				cp.pending[p] = copyOb(ob)
			}
		}
		return cp
	}
	copyOb = func(ob *oblig) *oblig {
		if ob == nil {
			return nil
		}
		if cp := obMemo.get(ob); cp != nil {
			return cp
		}
		cp := &oblig{proc: ob.proc, done: ob.done}
		obMemo = obMemo.put(ob, cp)
		cp.store = copyRec(ob.store)
		cp.load = copyRec(ob.load)
		cp.target = copyRec(ob.target)
		return cp
	}

	for id, r := range c.owner {
		if r != nil {
			out.owner[id] = copyRec(r)
		}
	}
	for ob := range c.armed {
		out.armed[copyOb(ob)] = true
	}
	for key, bo := range c.bottoms {
		cp := &bottomOblig{load: copyRec(bo.load), targets: make(map[*rec]bool, len(bo.targets))}
		for t := range bo.targets {
			cp.targets[copyRec(t)] = true
		}
		out.bottoms[key] = cp
	}
	for p, ps := range c.procs {
		cp := *ps
		out.procs[p] = &cp
	}
	for b, bs := range c.blocks {
		cp := *bs
		cp.orphan = copyRec(bs.orphan)
		out.blocks[b] = &cp
	}
	return out
}

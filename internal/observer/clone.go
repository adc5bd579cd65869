package observer

import (
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// CloneableGenerator is an STOrderGenerator that supports deep copying;
// required when the observer itself is cloned or copied (as the model
// checker does at every branch point).
type CloneableGenerator interface {
	STOrderGenerator
	Clone() STOrderGenerator
	// CopyFrom overwrites the receiver with a deep copy of src, reusing the
	// receiver's storage. src must have the receiver's concrete type.
	CopyFrom(src STOrderGenerator)
}

// Clone returns a deep copy of the RealTime generator.
func (g *RealTime) Clone() STOrderGenerator {
	out := NewRealTime()
	for b, h := range g.last {
		out.last[b] = h
	}
	return out
}

// CopyFrom implements CloneableGenerator.
func (g *RealTime) CopyFrom(src STOrderGenerator) {
	s := src.(*RealTime)
	if s == g {
		return
	}
	clear(g.last)
	for b, h := range s.last {
		g.last[b] = h
	}
}

// Clone returns a deep copy of the observer whose emitted symbols go to
// the given sink. The generator must implement CloneableGenerator.
func (o *Observer) Clone(emit func(descriptor.Symbol) error) *Observer {
	out := &Observer{
		proto:      o.proto,
		gen:        cloneable(o.gen).Clone(),
		emit:       emit,
		poolSize:   o.poolSize,
		freeIDs:    append([]int(nil), o.freeIDs...),
		nodes:      make(map[NodeHandle]*onode, len(o.nodes)),
		nextHandle: o.nextHandle,
		locToNode:  make([]*onode, len(o.locToNode)),
		lastOp:     make(map[trace.ProcID]*onode, len(o.lastOp)),
		firstSt:    make(map[trace.BlockID]*onode, len(o.firstSt)),
		bottoms:    make(map[[2]int]*onode, len(o.bottoms)),
		traceLen:   o.traceLen,
		stats:      o.stats,
		err:        o.err,
		pool:       nil, // clones are compact: no scratch storage
	}
	// Memoize so shared pointers stay shared; a linear scan over
	// stack-backed slices, since a state holds a handful of nodes.
	var srcBuf, dstBuf [32]*onode
	memoSrc, memoDst := srcBuf[:0], dstBuf[:0]
	var copyNode func(n *onode) *onode
	copyNode = func(n *onode) *onode {
		if n == nil {
			return nil
		}
		for i, s := range memoSrc {
			if s == n {
				return memoDst[i]
			}
		}
		cp := &onode{
			h: n.h, op: n.op, id: n.id,
			locRefs: n.locRefs, pins: n.pins,
			stIn: n.stIn, succPinned: n.succPinned,
		}
		memoSrc, memoDst = append(memoSrc, n), append(memoDst, cp)
		cp.stSucc = copyNode(n.stSucc)
		if n.pending != nil {
			cp.pending = make(map[trace.ProcID]*onode, len(n.pending))
			for p, l := range n.pending {
				cp.pending[p] = copyNode(l)
			}
		}
		return cp
	}
	for h, n := range o.nodes {
		out.nodes[h] = copyNode(n)
	}
	for i, n := range o.locToNode {
		out.locToNode[i] = copyNode(n)
	}
	for p, n := range o.lastOp {
		out.lastOp[p] = copyNode(n)
	}
	for b, n := range o.firstSt {
		out.firstSt[b] = copyNode(n)
	}
	for k, n := range o.bottoms {
		out.bottoms[k] = copyNode(n)
	}
	return out
}

// nodePool is the reusable storage of an observer that has been the
// destination of CopyFrom: a slab of nodes (each keeping its pending map
// across reuse) and the memo table of the copy in progress. Clones never
// carry one.
type nodePool struct {
	nodes []*pooledNode
	used  int
	// Source nodes and their copies, searched linearly.
	memoSrc, memoDst []*onode
}

type pooledNode struct {
	onode
	pending map[trace.ProcID]*onode
}

// CopyFrom overwrites o with a deep copy of src, reusing o's maps, slices
// and node storage, so that copying a parent state into a per-worker
// scratch observer and stepping it allocates no nodes. o keeps its own
// emit sink: a scratch observer stays bound to its scratch checker. Both
// generators must implement CloneableGenerator and have the same concrete
// type.
func (o *Observer) CopyFrom(src *Observer) {
	if o == src {
		return
	}
	if o.pool == nil {
		o.pool = &nodePool{}
	}
	p := o.pool
	p.used = 0
	// Drop the source pointers so the pool does not keep parents alive.
	clear(p.memoSrc)
	p.memoSrc, p.memoDst = p.memoSrc[:0], p.memoDst[:0]
	o.proto = src.proto
	cloneable(o.gen).CopyFrom(src.gen)
	o.poolSize = src.poolSize
	o.freeIDs = append(o.freeIDs[:0], src.freeIDs...)
	o.nextHandle, o.traceLen, o.stats, o.err = src.nextHandle, src.traceLen, src.stats, src.err
	o.nodes, o.lastOp = emptied(o.nodes), emptied(o.lastOp)
	o.firstSt, o.bottoms = emptied(o.firstSt), emptied(o.bottoms)
	o.locToNode = append(o.locToNode[:0], src.locToNode...)
	for i, n := range src.locToNode {
		o.locToNode[i] = o.copyNode(n)
	}
	for h, n := range src.nodes {
		o.nodes[h] = o.copyNode(n)
	}
	for p, n := range src.lastOp {
		o.lastOp[p] = o.copyNode(n)
	}
	for b, n := range src.firstSt {
		o.firstSt[b] = o.copyNode(n)
	}
	for k, n := range src.bottoms {
		o.bottoms[k] = o.copyNode(n)
	}
}

func cloneable(g STOrderGenerator) CloneableGenerator {
	cg, ok := g.(CloneableGenerator)
	if !ok {
		panic("observer: generator does not support Clone")
	}
	return cg
}

func (o *Observer) copyNode(n *onode) *onode {
	if n == nil {
		return nil
	}
	p := o.pool
	for i, s := range p.memoSrc {
		if s == n {
			return p.memoDst[i]
		}
	}
	cp := o.allocNode(onode{
		h: n.h, op: n.op, id: n.id,
		locRefs: n.locRefs, pins: n.pins,
		stIn: n.stIn, succPinned: n.succPinned,
	}, n.pending != nil)
	p.memoSrc, p.memoDst = append(p.memoSrc, n), append(p.memoDst, cp)
	cp.stSucc = o.copyNode(n.stSucc)
	if len(n.pending) > 0 {
		for proc, l := range n.pending {
			cp.pending[proc] = o.copyNode(l)
		}
	}
	return cp
}

// allocNode returns a node holding v (whose pending map must be nil), with
// an empty pending map when asked; CopyFrom destinations draw it from their
// slab.
func (o *Observer) allocNode(v onode, pending bool) *onode {
	if o.pool == nil {
		n := new(onode)
		*n = v
		if pending {
			n.pending = make(map[trace.ProcID]*onode)
		}
		return n
	}
	p := o.pool
	if p.used == len(p.nodes) {
		p.nodes = append(p.nodes, new(pooledNode))
	}
	pn := p.nodes[p.used]
	p.used++
	pn.onode = v
	if pending {
		pn.pending = emptied(pn.pending)
		pn.onode.pending = pn.pending
	}
	return &pn.onode
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

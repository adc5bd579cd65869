package observer

import "scverify/internal/descriptor"

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
	out := new(Observer)
	out.emit = emit
	out.CopyFrom(o)
	return out
}

// CopyFrom overwrites o with a deep copy of src, reusing o's slices and
// generator storage, so that copying a parent state into a per-worker
// scratch observer allocates nothing. o keeps its own emit sink: a scratch
// observer stays bound to its scratch checker. Both generators must
// implement CloneableGenerator and have the same concrete type.
func (o *Observer) CopyFrom(src *Observer) {
	if o == src {
		return
	}
	o.proto = src.proto
	if o.gen == nil {
		o.gen = cloneable(src.gen).Clone()
	} else {
		cloneable(o.gen).CopyFrom(src.gen)
	}
	o.poolSize, o.procs, o.blocks = src.poolSize, src.procs, src.blocks
	o.freeIDs = append(o.freeIDs[:0], src.freeIDs...)
	o.nodes = append(o.nodes[:0], src.nodes...)
	o.live, o.nextHandle = src.live, src.nextHandle
	o.locToNode = append(o.locToNode[:0], src.locToNode...)
	o.lastOp = append(o.lastOp[:0], src.lastOp...)
	o.firstSt = append(o.firstSt[:0], src.firstSt...)
	o.bottoms = append(o.bottoms[:0], src.bottoms...)
	o.pending = append(o.pending[:0], src.pending...)
	o.traceLen, o.stats, o.err = src.traceLen, src.stats, src.err
}

func cloneable(g STOrderGenerator) CloneableGenerator {
	cg, ok := g.(CloneableGenerator)
	if !ok {
		panic("observer: generator does not support Clone")
	}
	return cg
}

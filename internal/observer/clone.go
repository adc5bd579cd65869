package observer

import "scverify/internal/descriptor"

// Clone returns a deep copy of the observer whose emitted symbols go to
// the given sink.
func (o *Observer) Clone(emit func(descriptor.Symbol) error) *Observer {
	out := new(Observer)
	out.emit = emit
	out.CopyFrom(o)
	return out
}

// CopyFrom overwrites o with a deep copy of src, reusing o's slices, so
// that copying a parent state into a per-worker scratch observer allocates
// nothing. o keeps its own emit sink: a scratch observer stays bound to
// its scratch checker.
func (o *Observer) CopyFrom(src *Observer) {
	if o == src {
		return
	}
	o.proto, o.gen = src.proto, src.gen
	o.poolSize, o.procs, o.blocks = src.poolSize, src.procs, src.blocks
	o.freeIDs = append(o.freeIDs[:0], src.freeIDs...)
	o.nodes = append(o.nodes[:0], src.nodes...)
	o.live, o.nextHandle = src.live, src.nextHandle
	o.locToNode = append(o.locToNode[:0], src.locToNode...)
	o.lastOp = append(o.lastOp[:0], src.lastOp...)
	o.firstSt = append(o.firstSt[:0], src.firstSt...)
	o.lastSt = append(o.lastSt[:0], src.lastSt...)
	o.queue = append(o.queue[:0], src.queue...)
	o.bottoms = append(o.bottoms[:0], src.bottoms...)
	o.pending = append(o.pending[:0], src.pending...)
	o.traceLen, o.stats, o.err = src.traceLen, src.stats, src.err
}

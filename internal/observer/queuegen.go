package observer

import (
	"encoding/binary"

	"scverify/internal/protocol"
	"scverify/internal/trace"
)

// QueueGenerator is the reusable form of the Section 4.2 non-trivial
// ST-order generator: it serves any protocol whose stores enter a
// per-processor FIFO at ST time and serialize later, when a named internal
// event (lazy caching's "memory-write", the store buffer's "Drain") pops
// the processor's oldest pending store. Stores still queued at the end of
// the run are serialized by a deterministic completion — legal because a
// queued store can have no inheritors yet.
type QueueGenerator struct {
	event   string
	procs   int
	pending map[trace.ProcID][]NodeHandle
	last    map[trace.BlockID]NodeHandle
	blocks  map[NodeHandle]trace.BlockID
}

// NewQueueGenerator returns a generator that serializes stores on the
// named internal event, whose first argument must be the issuing
// processor.
func NewQueueGenerator(event string, procs int) *QueueGenerator {
	return &QueueGenerator{
		event:   event,
		procs:   procs,
		pending: make(map[trace.ProcID][]NodeHandle),
		last:    make(map[trace.BlockID]NodeHandle),
		blocks:  make(map[NodeHandle]trace.BlockID),
	}
}

// OnStore queues the store for later serialization.
func (g *QueueGenerator) OnStore(h NodeHandle, op trace.Op) Update {
	g.pending[op.Proc] = append(g.pending[op.Proc], h)
	g.blocks[h] = op.Block
	return Update{}
}

// OnInternal serializes the issuing processor's oldest pending store when
// the configured event fires.
func (g *QueueGenerator) OnInternal(a protocol.Action) Update {
	if a.Name != g.event || len(a.Args) < 1 {
		return Update{}
	}
	return g.serializeHead(trace.ProcID(a.Args[0]))
}

func (g *QueueGenerator) serializeHead(p trace.ProcID) Update {
	q := g.pending[p]
	if len(q) == 0 {
		return Update{}
	}
	h := q[0]
	g.pending[p] = q[1:]
	b := g.blocks[h]
	delete(g.blocks, h)
	var u Update
	if prev, ok := g.last[b]; ok {
		u.Edges = append(u.Edges, STEdge{From: prev, To: h})
	} else {
		u.Firsts = append(u.Firsts, FirstStore{Block: b, Node: h})
	}
	g.last[b] = h
	return u
}

// Finish serializes all still-pending stores, processors in index order.
func (g *QueueGenerator) Finish() Update {
	var u Update
	for p := trace.ProcID(1); int(p) <= g.procs; p++ {
		for len(g.pending[p]) > 0 {
			step := g.serializeHead(p)
			u.Edges = append(u.Edges, step.Edges...)
			u.Firsts = append(u.Firsts, step.Firsts...)
		}
	}
	return u
}

// Idle implements IdleGenerator.
func (g *QueueGenerator) Idle() bool {
	for _, q := range g.pending {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// Clone implements CloneableGenerator.
func (g *QueueGenerator) Clone() STOrderGenerator {
	out := NewQueueGenerator(g.event, g.procs)
	for p, q := range g.pending {
		out.pending[p] = append([]NodeHandle(nil), q...)
	}
	for b, h := range g.last {
		out.last[b] = h
	}
	for h, b := range g.blocks {
		out.blocks[h] = b
	}
	return out
}

// CopyFrom implements CloneableGenerator, reusing the receiver's queues
// and maps.
func (g *QueueGenerator) CopyFrom(src STOrderGenerator) {
	s := src.(*QueueGenerator)
	if s == g {
		return
	}
	g.event, g.procs = s.event, s.procs
	for p, q := range g.pending {
		g.pending[p] = q[:0]
	}
	for p, q := range s.pending {
		g.pending[p] = append(g.pending[p][:0], q...)
	}
	clear(g.last)
	for b, h := range s.last {
		g.last[b] = h
	}
	clear(g.blocks)
	for h, b := range s.blocks {
		g.blocks[h] = b
	}
}

// StateKey encodes the generator state with raw handles.
func (g *QueueGenerator) StateKey() []byte {
	return g.AppendStateKeyResolved(nil, rawHandle)
}

// AppendStateKeyResolved appends the generator state to dst, naming each
// handle by resolve(handle).
func (g *QueueGenerator) AppendStateKeyResolved(dst []byte, resolve func(NodeHandle) int) []byte {
	for p := trace.ProcID(1); int(p) <= g.procs; p++ {
		q := g.pending[p]
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		for _, h := range q {
			dst = binary.AppendUvarint(dst, uint64(resolve(h)))
			dst = binary.AppendUvarint(dst, uint64(g.blocks[h]))
		}
	}
	return appendLastKey(dst, g.last, resolve)
}

// appendRoles appends the handles the generator holds, for the observer's
// canonical renaming: pending stores in (processor, FIFO) order, then
// per-block last stores in block order.
func (g *QueueGenerator) appendRoles(dst []NodeHandle) []NodeHandle {
	for p := trace.ProcID(1); int(p) <= g.procs; p++ {
		dst = append(dst, g.pending[p]...)
	}
	return appendLastRoles(dst, g.last)
}

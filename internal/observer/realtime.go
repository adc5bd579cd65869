package observer

import (
	"encoding/binary"
	"slices"

	"scverify/internal/protocol"
	"scverify/internal/trace"
)

// RealTime is the trivial ST-order generator of Section 4.2 for protocols
// with the real-time ST reordering property: for every block, the ST order
// is exactly the order in which the stores appear in the run. All
// published hardware protocols satisfy this; only designs like Lazy
// Caching need more. The generator's state is one node handle per block.
type RealTime struct {
	last map[trace.BlockID]NodeHandle
}

// NewRealTime returns a real-time ST-order generator.
func NewRealTime() *RealTime {
	return &RealTime{last: make(map[trace.BlockID]NodeHandle)}
}

// OnStore orders the new store immediately after the previous store to the
// same block; the first store of a block is known to be first right away.
func (g *RealTime) OnStore(h NodeHandle, op trace.Op) Update {
	var u Update
	if prev, ok := g.last[op.Block]; ok {
		u.Edges = append(u.Edges, STEdge{From: prev, To: h})
	} else {
		u.Firsts = append(u.Firsts, FirstStore{Block: op.Block, Node: h})
	}
	g.last[op.Block] = h
	return u
}

// OnInternal is a no-op: real-time ordering needs no internal events.
func (g *RealTime) OnInternal(protocol.Action) Update { return Update{} }

// Finish is a no-op: every store was ordered as it appeared.
func (g *RealTime) Finish() Update { return Update{} }

// StateKey encodes the per-block last-store handles as raw handles; the
// observer's own key resolves them to descriptor IDs instead (see
// Observer.AppendCanonicalKey).
func (g *RealTime) StateKey() []byte {
	return g.AppendStateKeyResolved(nil, rawHandle)
}

// AppendStateKeyResolved appends the generator state to dst, naming each
// handle by resolve(handle).
func (g *RealTime) AppendStateKeyResolved(dst []byte, resolve func(NodeHandle) int) []byte {
	return appendLastKey(dst, g.last, resolve)
}

// sortedBlocks returns the blocks of a per-block handle map in increasing
// order, in buf when it fits.
func sortedBlocks(last map[trace.BlockID]NodeHandle, buf []int) []int {
	blocks := buf[:0]
	for b := range last {
		blocks = append(blocks, int(b))
	}
	slices.Sort(blocks)
	return blocks
}

// appendLastKey encodes a per-block last-store map as (block, resolved
// handle) pairs in block order.
func appendLastKey(dst []byte, last map[trace.BlockID]NodeHandle, resolve func(NodeHandle) int) []byte {
	var buf [16]int
	for _, b := range sortedBlocks(last, buf[:]) {
		dst = binary.AppendUvarint(dst, uint64(b))
		dst = binary.AppendUvarint(dst, uint64(resolve(last[trace.BlockID(b)])))
	}
	return dst
}

func rawHandle(h NodeHandle) int { return int(h) }

// appendLastRoles appends a per-block last-store map's handles in block
// order.
func appendLastRoles(dst []NodeHandle, last map[trace.BlockID]NodeHandle) []NodeHandle {
	var buf [16]int
	for _, b := range sortedBlocks(last, buf[:]) {
		dst = append(dst, last[trace.BlockID(b)])
	}
	return dst
}

// IdleGenerator is implemented by generators that can report whether a
// Finish call would be a no-op (no pending serialization decisions). The
// model checker uses it to run end-of-run checks without cloning.
type IdleGenerator interface {
	Idle() bool
}

// Idle implements IdleGenerator: the real-time generator serializes every
// store the moment it appears, so Finish never has work to do.
func (g *RealTime) Idle() bool { return true }

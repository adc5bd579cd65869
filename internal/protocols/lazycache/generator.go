package lazycache

import "scverify/internal/observer"

// Generator is the ST-order generator for lazy caching described in
// Section 4.2 of the paper: stores are ordered not in trace order but in
// memory-write order. It is the observer's queue-aware generator driven by
// memory-write events: per processor, the FIFO of store nodes whose
// memory-writes are still pending, and per block the most recently
// serialized store; each memory-write(P,B) event pops P's oldest pending
// store and chains it after the block's previous store.
//
// At end of run, stores still queued are serialized by a deterministic
// completion (processors in index order, each FIFO in order) — legal
// because unserialized stores can have no inheritors: a processor cannot
// read its own pending stores (the out-queue-empty load condition) and no
// other processor can see them.
type Generator = observer.QueueGenerator

// NewGenerator returns a generator for a protocol with the given number of
// processors.
func NewGenerator(procs int) *Generator {
	return observer.NewQueueGenerator("memory-write", procs)
}

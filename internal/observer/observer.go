// Package observer implements the finite-state witness observer of
// Theorem 4.1 of Condon & Hu: a non-interfering augmentation of a protocol
// that converts each run into a k-graph descriptor of the constraint graph
// W(R). Inheritance edges come from the protocol's tracking labels
// (Section 4.1, Lemma 4.1); ST-order edges come from a pluggable ST-order
// generator (Section 4.2) — trivial for protocols with the real-time ST
// reordering property, queue-aware for Lazy Caching; program-order and
// forced edges are generated by the observer itself.
//
// The observer draws node IDs from a bounded pool. Pool exhaustion is the
// operational signature of a constraint graph whose bandwidth exceeds the
// configured bound — i.e. of a run outside the class the observer was
// built for — and is reported as an error rather than hidden by growing
// the pool.
package observer

import (
	"errors"
	"fmt"

	"scverify/internal/descriptor"
	"scverify/internal/protocol"
	"scverify/internal/trace"
)

// NodeHandle identifies a constraint-graph node inside the observer and
// its ST-order generator. Handles are never recycled.
type NodeHandle int

// STEdge is an ST-order edge between two store nodes, in serialization
// order (From immediately precedes To for their block).
type STEdge struct {
	From, To NodeHandle
}

// FirstStore reports that the first store of a block in ST order is now
// determined.
type FirstStore struct {
	Block trace.BlockID
	Node  NodeHandle
}

// Update is what an ST-order generator learned from one event: newly
// determined ST-order edges (each block's edges must be reported in chain
// order) and newly determined first stores.
type Update struct {
	Edges  []STEdge
	Firsts []FirstStore
}

// STOrderGenerator incrementally produces the per-block total store order
// of Section 4.2. Implementations must be deterministic and finite-state;
// StateKey canonically encodes their state for model checking.
type STOrderGenerator interface {
	// OnStore observes a new store node entering the constraint graph.
	OnStore(h NodeHandle, op trace.Op) Update
	// OnInternal observes a non-memory protocol action.
	OnInternal(a protocol.Action) Update
	// Finish completes the order at end of run (for generators that defer
	// serialization decisions, e.g. stores still queued in Lazy Caching).
	Finish() Update
	// StateKey canonically encodes the generator state.
	StateKey() []byte
}

// ErrBandwidth is wrapped by errors reporting ID-pool exhaustion.
var ErrBandwidth = errors.New("observer: ID pool exhausted (constraint graph bandwidth exceeds bound)")

// onode is the observer's record for a live constraint-graph node.
type onode struct {
	h       NodeHandle
	op      trace.Op
	id      int // descriptor ID while live
	locRefs int // locations currently holding this store's value
	pins    int // other reasons the node must stay addressable
	stSucc  *onode
	stIn    bool
	// succPinned records that this store currently pins its ST-order
	// successor (required while the store is inh-active so late inheritors
	// can still get their forced edges).
	succPinned bool
	// pending maps processors to the latest load of that processor
	// inheriting from this store and still owed a forced edge.
	pending map[trace.ProcID]*onode
}

// Observer converts one protocol run into a descriptor stream. Create with
// New, feed executed transitions with Step, and conclude with Finish. The
// Emit callback receives descriptor symbols as they are produced.
type Observer struct {
	proto protocol.Protocol
	gen   STOrderGenerator
	emit  func(descriptor.Symbol) error // not copied: destination-owned

	poolSize int
	freeIDs  []int

	nodes      map[NodeHandle]*onode
	nextHandle NodeHandle

	locToNode []*onode                 // by location, 1-based
	lastOp    map[trace.ProcID]*onode  // program-order predecessor per processor
	firstSt   map[trace.BlockID]*onode // ST-order-first store per block, once known
	bottoms   map[[2]int]*onode        // pending ⊥-loads by (proc, block)
	traceLen  int

	stats Stats
	err   error

	// pool is the reusable storage of a CopyFrom destination; nil otherwise.
	pool *nodePool // not copied: destination-owned
}

// Stats counts observer activity for benchmarks and the size-bound
// experiment.
type Stats struct {
	Symbols int // descriptor symbols emitted
	Ops     int // memory operations observed
	MaxLive int // high-water mark of live node count
	PeakIDs int // high-water mark of IDs in use
}

// Config tunes observer construction.
type Config struct {
	// PoolSize is the number of descriptor IDs available (k+1). Zero
	// selects the Section 4.4 bound L + p·b + p + 2·b + 2.
	PoolSize int
}

// DefaultPoolSize returns the Section 4.4-derived ID pool size for a
// protocol: L live stores, p·b pending loads, p program-order tails, plus
// per-block successor and first-store pins.
func DefaultPoolSize(p protocol.Protocol) int {
	pr := p.Params()
	return p.Locations() + pr.Procs*pr.Blocks + pr.Procs + 2*pr.Blocks + 2
}

// New returns an observer for the protocol using the given ST-order
// generator and symbol sink. IDs 1..PoolSize name nodes; ID PoolSize+1 is
// reserved, never bound, and used as the source of add-ID release symbols
// (add-ID(reserved, i) unbinds ID i, retiring its node in any downstream
// checker the moment the observer is done with it).
func New(p protocol.Protocol, gen STOrderGenerator, cfg Config, emit func(descriptor.Symbol) error) *Observer {
	size := cfg.PoolSize
	if size == 0 {
		size = DefaultPoolSize(p)
	}
	free := make([]int, 0, size)
	for id := size; id >= 1; id-- {
		free = append(free, id)
	}
	return &Observer{
		proto:     p,
		gen:       gen,
		emit:      emit,
		poolSize:  size,
		freeIDs:   free,
		nodes:     make(map[NodeHandle]*onode),
		locToNode: make([]*onode, p.Locations()+1),
		lastOp:    make(map[trace.ProcID]*onode),
		firstSt:   make(map[trace.BlockID]*onode),
		bottoms:   make(map[[2]int]*onode),
	}
}

// K returns the bandwidth bound of the emitted descriptors: node IDs range
// over 1..poolSize and the release symbols use the reserved ID poolSize+1,
// so k+1 = poolSize+1.
func (o *Observer) K() int { return o.poolSize }

// releaseID is the reserved never-bound ID used by release symbols.
func (o *Observer) releaseID() int { return o.poolSize + 1 }

// Stats returns the activity counters.
func (o *Observer) Stats() Stats { return o.stats }

// Err returns the first error encountered, if any.
func (o *Observer) Err() error { return o.err }

func (o *Observer) fail(err error) error {
	if o.err == nil {
		o.err = err
	}
	return o.err
}

func (o *Observer) send(sym descriptor.Symbol) error {
	if o.err != nil {
		return o.err
	}
	o.stats.Symbols++
	if err := o.emit(sym); err != nil {
		return o.fail(err)
	}
	return nil
}

func (o *Observer) allocID() (int, error) {
	if len(o.freeIDs) == 0 {
		return 0, o.fail(fmt.Errorf("%w: pool size %d", ErrBandwidth, o.poolSize))
	}
	id := o.freeIDs[len(o.freeIDs)-1]
	o.freeIDs = o.freeIDs[:len(o.freeIDs)-1]
	if used := o.poolSize - len(o.freeIDs); used > o.stats.PeakIDs {
		o.stats.PeakIDs = used
	}
	return id, nil
}

func (o *Observer) newNode(op trace.Op) (*onode, error) {
	id, err := o.allocID()
	if err != nil {
		return nil, err
	}
	n := o.allocNode(onode{h: o.nextHandle, op: op, id: id}, op.IsStore())
	o.nextHandle++
	o.nodes[n.h] = n
	if live := len(o.nodes); live > o.stats.MaxLive {
		o.stats.MaxLive = live
	}
	opCopy := op
	if err := o.send(descriptor.Node{ID: id, Op: &opCopy}); err != nil {
		return nil, err
	}
	return n, nil
}

func (o *Observer) pin(n *onode) { n.pins++ }

func (o *Observer) unpin(n *onode) {
	n.pins--
	o.maybeRelease(n)
}

// maybeRelease returns the node's ID to the pool once nothing can ever
// reference it again.
func (o *Observer) maybeRelease(n *onode) {
	if n.locRefs > 0 || n.pins > 0 {
		return
	}
	if _, live := o.nodes[n.h]; !live {
		return
	}
	delete(o.nodes, n.h)
	// Tell downstream checkers the node is retired: unbinding its ID is the
	// only way the descriptor alphabet can express release, and it lets the
	// checker run its retirement checks immediately instead of waiting for
	// the ID to be recycled.
	_ = o.send(descriptor.AddID{Existing: o.releaseID(), New: n.id})
	o.freeIDs = append(o.freeIDs, n.id)
	// A store leaving the graph stops pinning its ST-order successor.
	if n.succPinned {
		n.succPinned = false
		o.unpin(n.stSucc)
	}
}

// decLocRef drops one location reference from the node.
func (o *Observer) decLocRef(n *onode) {
	n.locRefs--
	if n.locRefs == 0 && n.succPinned {
		// The store is no longer inh-active: no future load can inherit
		// from it, so its successor no longer needs to stay addressable.
		n.succPinned = false
		o.unpin(n.stSucc)
	}
	o.maybeRelease(n)
}

// FinishIsNoOp reports whether Finish would emit no symbols: true when the
// ST-order generator has no pending serialization work. When it returns
// true, downstream end-of-run checks may run directly against the current
// checker state (see checker.FinishDry) without cloning the pipeline.
func (o *Observer) FinishIsNoOp() bool {
	if o.err != nil {
		return false
	}
	ig, ok := o.gen.(IdleGenerator)
	return ok && ig.Idle()
}

// Package checker implements the full finite-state sequential-consistency
// checker of Theorem 3.1 of Condon & Hu. The checker reads a k-graph
// descriptor stream (the observer's output) and accepts iff the stream
// describes an acyclic constraint graph: it runs the cycle checker of
// Lemma 3.3 in concert with streaming enforcement of the five edge-
// annotation constraints of Section 3.1, including the deferred-load
// machinery for forced-edge obligations described in the theorem's proof.
//
// The checker is protocol-independent: the same automaton checks every
// observer, exactly as Figure 2 of the paper prescribes.
package checker

import (
	"scverify/internal/cycle"
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// rec is the checker's per-node bookkeeping: the node's operation label,
// the annotation bits of Theorem 3.1's proof (program-edge-in/out,
// ST-edge-in/out, inheritance-edge-in), and the relations needed for
// forced-edge obligations. Records live in the checker's recs arena and
// refer to each other by index (0 is none); a record stays there past
// deactivation only while something still refers to it (see reclaim).
type rec struct {
	seq     int // creation order; only relative order is ever used
	op      trace.Op
	active  bool
	idCount int16 // descriptor IDs currently naming this record

	poIn, poOut bool
	stIn, stOut bool
	inhIn       bool

	// refs counts the references other records, obligations, ⊥-load
	// obligations and block orphans hold to this record.
	refs int32

	inhFrom int32 // for loads: the store this load inherits from
	stSucc  int32 // for stores: ST-order successor
	poNext  int   // seq of the program-order successor while poOut, for duplicate-edge detection

	// forced lists (in links) the stores of the load's own block this load
	// has a forced edge to; consulted when the inherited-from store's
	// ST-order successor becomes known.
	forced int32

	// pending lists (in obligs), for a store, each processor's forced-edge
	// obligation slot ("forced-edge-on-path-to" of the paper).
	pending int32
}

// oblig is a constraint-5(a) obligation: the latest load of one processor
// inheriting from a given store must eventually carry a forced edge to the
// store's ST-order successor. It is armed, and on the checker's armed
// list, while its target is known and it is not yet discharged.
type oblig struct {
	store  int32 // the inherited-from store i, whose pending list holds the slot
	proc   trace.ProcID
	load   int32 // current obligation carrier j (last inheritor of proc)
	target int32 // k = i's ST-order successor; 0 until known
	done   bool

	prev, next           int32 // the store's neighbouring slots
	prevArmed, nextArmed int32 // neighbours on the armed list
}

func (ob *oblig) armed() bool { return ob.target != 0 && !ob.done }

// link is one cell of a record list: forced-edge targets of a load or of a
// ⊥-load obligation.
type link struct{ rec, prev, next int32 }

// bottom is a constraint-5(b) obligation: the last LD(P,B,⊥) of each
// (processor, block) pair must carry a forced edge to the first store of B
// in ST order.
type bottom struct {
	load    int32
	targets int32 // list of stores of block B this load has forced edges to
}

type procState struct {
	seen     bool
	srcFinal int // deactivated nodes with poIn still false
	snkFinal int // deactivated nodes with poOut still false
}

type blockState struct {
	stores   bool
	srcFinal int   // deactivated stores with stIn still false
	snkFinal int   // deactivated stores with stOut still false
	orphan   int32 // the deactivated store with stIn false, if any
}

// Checker is the streaming SC checker. Construct with New; feed symbols
// with Step and conclude with Finish.
type Checker struct {
	k        int
	params   trace.Params // zero value disables the label range check
	noValues bool         // skip value matching (Section 4.4 optimization)

	cyc cycle.Checker

	// owner maps descriptor IDs (1..k+1) to the active record they name;
	// a record is active while at least one ID names it (idCount > 0).
	owner []int32
	seq   int

	recs   arena[rec]
	obligs arena[oblig]
	links  arena[link]
	armed  int32 // head of the armed obligations, linked through obligs

	// index finds, for a load, the cell of each record on its list, and
	// for a store, its obligation slot for each processor, so membership
	// and slot lookups stay O(1) however many forced-edge targets a load
	// collects and however many processors inherit from one store. A
	// record is a load or a store, and its entries go when it does, so
	// the two kinds of key never meet.
	index map[[2]int]int32

	// The per-processor, per-block and per-(processor, block) summaries
	// are keyed by the wire IDs of the operation labels, which the stream
	// chooses, so they are maps rather than slices sized by an ID.
	procs   map[trace.ProcID]procState
	blocks  map[trace.BlockID]blockState
	bottoms map[[2]int]bottom

	// symbols counts Step calls; stepping is the symbol currently being
	// processed (nil outside Step), so rejections raised from anywhere in
	// the call tree can attribute themselves to the rejecting symbol.
	symbols  int
	stepping descriptor.Symbol
	witness  bool

	rejected error
}

// New returns a checker for k-graph descriptors.
func New(k int) *Checker {
	return &Checker{
		k:       k,
		cyc:     *cycle.New(k),
		owner:   make([]int32, k+2),
		recs:    newArena[rec](),
		obligs:  newArena[oblig](),
		links:   newArena[link](),
		index:   make(map[[2]int]int32),
		procs:   make(map[trace.ProcID]procState),
		blocks:  make(map[trace.BlockID]blockState),
		bottoms: make(map[[2]int]bottom),
	}
}

// SetParams enables rejection of node labels outside the protocol
// parameters (p, b, v).
func (c *Checker) SetParams(p trace.Params) { c.params = p }

// DisableValueCheck makes the checker skip the value-equality side of
// constraint 4 (an inheritance edge must link a store and a load of the
// same value). This realizes the optimization at the end of Section 4.4:
// value matching "can be done independently from the cycle-testing check,
// thereby saving lg v bits per node" — pair the value-blind checker with
// valuecheck.Checker to recover full acceptance.
func (c *Checker) DisableValueCheck() { c.noValues = true }

// Err returns the rejection error, or nil while the checker still accepts.
// Rejections are always *RejectError values, so errors.As recovers the
// structured cause.
func (c *Checker) Err() error { return c.rejected }

// CycleStats exposes the embedded cycle checker's counters.
func (c *Checker) CycleStats() cycle.Stats { return c.cyc.Stats() }

// EnableWitness switches the embedded cycle checker into witness mode, so
// acyclicity rejections carry the actual offending cycle (RejectError.Cycle
// with populated Hops). Must be called before the first Step. The model
// checker leaves witness mode off — it clones the checker at every branch —
// and re-derives witnesses by replaying counterexample runs.
func (c *Checker) EnableWitness() *Checker {
	c.witness = true
	c.cyc.EnableWitness()
	return c
}

func (c *Checker) rec(i int32) *rec { return &c.recs.items[i] }

// Step consumes one descriptor symbol. A rejection is sticky.
func (c *Checker) Step(sym descriptor.Symbol) error {
	if c.rejected != nil {
		return c.rejected
	}
	c.stepping = sym
	c.symbols++
	defer func() { c.stepping = nil }()
	if err := c.cyc.Step(sym); err != nil {
		return c.rejectCycle(err)
	}
	switch v := sym.(type) {
	case descriptor.Node:
		if v.Op == nil {
			return c.reject(ConstraintMalformed, nil, "node with ID %d has no operation label", v.ID)
		}
		if c.params.Procs > 0 && !c.params.Contains(*v.Op) {
			return c.reject(ConstraintParams, []trace.Op{*v.Op}, "operation %s outside parameters %s", v.Op, c.params)
		}
		if err := c.releaseID(v.ID); err != nil {
			return err
		}
		i := c.recs.alloc()
		*c.rec(i) = rec{seq: c.seq, op: *v.Op, active: true, idCount: 1}
		c.seq++
		c.owner[v.ID] = i
		op := v.Op
		ps := c.procs[op.Proc]
		ps.seen = true
		c.procs[op.Proc] = ps
		if op.IsStore() {
			bs := c.blocks[op.Block]
			bs.stores = true
			c.blocks[op.Block] = bs
		} else if op.Value == trace.Bottom {
			// The newest ⊥-load takes over the (P,B) obligation; the
			// previous carrier is discharged through the program-order
			// path to this one.
			key := [2]int{int(op.Proc), int(op.Block)}
			old := c.bottoms[key]
			c.bottoms[key] = bottom{load: c.hold(i)}
			c.dropList(old.load, old.targets)
			c.drop(old.load)
		}
	case descriptor.AddID:
		if v.Existing == v.New {
			return nil // the ID stays with its current node
		}
		gainer := c.owner[v.Existing]
		if c.owner[v.New] == gainer && gainer != 0 {
			return nil // alias already in place
		}
		if err := c.releaseID(v.New); err != nil {
			return err
		}
		if gainer != 0 {
			c.owner[v.New] = gainer
			c.rec(gainer).idCount++
		}
	case descriptor.Edge:
		a, b := c.owner[v.From], c.owner[v.To]
		if a == 0 || b == 0 {
			return nil // unbound IDs denote no edge
		}
		kind := v.Label.Kind()
		if kind&gProgramOrder != 0 {
			if err := c.onProgramOrder(a, b); err != nil {
				return err
			}
		}
		if kind&gStoreOrder != 0 {
			if err := c.onStoreOrder(a, b); err != nil {
				return err
			}
		}
		if kind&gInheritance != 0 {
			if err := c.onInheritance(a, b); err != nil {
				return err
			}
		}
		if kind&gForced != 0 {
			if err := c.onForced(a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// releaseID unbinds an ID; when a record loses its last ID it is
// deactivated and its retirement checks run.
func (c *Checker) releaseID(id int) error {
	i := c.owner[id]
	if i == 0 {
		return nil
	}
	c.owner[id] = 0
	r := c.rec(i)
	r.idCount--
	if r.idCount > 0 {
		return nil
	}
	return c.deactivate(i)
}

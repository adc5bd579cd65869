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
	"sort"

	"scverify/internal/cycle"
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// rec is the checker's per-node bookkeeping: the node's operation label,
// the annotation bits of Theorem 3.1's proof (program-edge-in/out,
// ST-edge-in/out, inheritance-edge-in), and the relations needed for
// forced-edge obligations. Records persist past deactivation only while an
// obligation references them.
type rec struct {
	seq     int // creation order; only relative order is ever used
	op      trace.Op
	active  bool
	idCount int16 // descriptor IDs currently naming this record

	poIn, poOut bool
	stIn, stOut bool
	inhIn       bool

	inhFrom *rec // for loads: the store this load inherits from
	stSucc  *rec // for stores: ST-order successor
	poNext  *rec // program-order successor, for duplicate-edge detection

	// forcedTo records stores of the load's own block this load has a
	// forced edge to; consulted when the inherited-from store's ST-order
	// successor becomes known.
	forcedTo map[*rec]bool

	// pending maps, for a store, each processor to its forced-edge
	// obligation slot ("forced-edge-on-path-to" of the paper).
	pending map[trace.ProcID]*oblig
}

// oblig is a constraint-5(a) obligation: the latest load of one processor
// inheriting from a given store must eventually carry a forced edge to the
// store's ST-order successor.
type oblig struct {
	store  *rec // the inherited-from store i
	proc   trace.ProcID
	load   *rec // current obligation carrier j (last inheritor of proc)
	target *rec // k = i's ST-order successor; nil until known
	done   bool
}

// bottomOblig is a constraint-5(b) obligation: the last LD(P,B,⊥) of each
// (processor, block) pair must carry a forced edge to the first store of B
// in ST order.
type bottomOblig struct {
	load    *rec
	targets map[*rec]bool // stores of block B this load has forced edges to
}

type procState struct {
	seen     bool
	srcFinal int // deactivated nodes with poIn still false
	snkFinal int // deactivated nodes with poOut still false
}

type blockState struct {
	stores   bool
	srcFinal int  // deactivated stores with stIn still false
	snkFinal int  // deactivated stores with stOut still false
	orphan   *rec // the deactivated store with stIn false, if any
}

// Checker is the streaming SC checker. Construct with New; feed symbols
// with Step and conclude with Finish.
type Checker struct {
	k        int
	params   trace.Params // zero value disables the label range check
	noValues bool         // skip value matching (Section 4.4 optimization)

	cyc *cycle.Checker

	// owner maps descriptor IDs (1..k+1) to the active record they name;
	// a record is active while at least one ID names it (idCount > 0).
	owner []*rec
	seq   int

	procs  map[trace.ProcID]*procState
	blocks map[trace.BlockID]*blockState

	// armed holds constraint-5(a) obligations whose target is known but
	// which are not yet discharged.
	armed map[*oblig]bool

	// bottoms holds constraint-5(b) obligations keyed by (proc, block).
	bottoms map[[2]int]*bottomOblig

	// symbols counts Step calls; stepping is the symbol currently being
	// processed (nil outside Step), so rejections raised from anywhere in
	// the call tree can attribute themselves to the rejecting symbol.
	symbols  int
	stepping descriptor.Symbol
	witness  bool

	rejected error

	// pool is the reusable storage of a CopyFrom destination; nil otherwise.
	pool *scratch // not copied: destination-owned
}

// New returns a checker for k-graph descriptors.
func New(k int) *Checker {
	return &Checker{
		k:       k,
		cyc:     cycle.New(k),
		owner:   make([]*rec, k+2),
		procs:   make(map[trace.ProcID]*procState),
		blocks:  make(map[trace.BlockID]*blockState),
		armed:   make(map[*oblig]bool),
		bottoms: make(map[[2]int]*bottomOblig),
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

func (c *Checker) proc(p trace.ProcID) *procState {
	ps, ok := c.procs[p]
	if !ok {
		if c.pool == nil {
			ps = &procState{}
		} else {
			ps = c.pool.procs.get()
			*ps = procState{}
		}
		c.procs[p] = ps
	}
	return ps
}

func (c *Checker) block(b trace.BlockID) *blockState {
	bs, ok := c.blocks[b]
	if !ok {
		if c.pool == nil {
			bs = &blockState{}
		} else {
			bs = c.pool.blocks.get()
			*bs = blockState{}
		}
		c.blocks[b] = bs
	}
	return bs
}

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
		store := v.Op.IsStore()
		r := c.newRec(rec{seq: c.seq, op: *v.Op, active: true, idCount: 1}, !store, store)
		c.seq++
		c.owner[v.ID] = r
		c.proc(r.op.Proc).seen = true
		if store {
			c.block(r.op.Block).stores = true
		} else if r.op.Value == trace.Bottom {
			key := [2]int{int(r.op.Proc), int(r.op.Block)}
			// The newest ⊥-load takes over the (P,B) obligation; the
			// previous carrier is discharged through the program-order
			// path to this one.
			c.bottoms[key] = c.newBottom(r)
		}
	case descriptor.AddID:
		if v.Existing == v.New {
			return nil // the ID stays with its current node
		}
		gainer := c.owner[v.Existing]
		if c.owner[v.New] == gainer && gainer != nil {
			return nil // alias already in place
		}
		if err := c.releaseID(v.New); err != nil {
			return err
		}
		if gainer != nil {
			c.owner[v.New] = gainer
			gainer.idCount++
		}
	case descriptor.Edge:
		a, b := c.owner[v.From], c.owner[v.To]
		if a == nil || b == nil {
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
	r := c.owner[id]
	if r == nil {
		return nil
	}
	c.owner[id] = nil
	r.idCount--
	if r.idCount > 0 {
		return nil
	}
	return c.deactivate(r)
}

// activeRecs collects the distinct active records, sorted by seq so
// iteration order is deterministic.
func (c *Checker) activeRecs() []*rec {
	out := make([]*rec, 0, len(c.owner))
	for _, r := range c.owner {
		if r == nil {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == r {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

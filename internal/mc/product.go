package mc

import (
	"fmt"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
)

// ProductOptions fixes how the observer/checker side of the product is
// built. Every participant of a distributed exploration must construct
// the product identically (same generator, same pool size) or canonical
// keys — and therefore shard ownership — would disagree.
type ProductOptions struct {
	// PoolSize overrides the observer ID pool (0 = Section 4.4 default).
	PoolSize int
	// Generator is the ST-order generator; the zero value is real-time.
	Generator observer.Generator
}

// Product is one concrete product state: the protocol state plus live
// observer and checker clones, its canonical key and fingerprint, the
// depth it was reached at, and the parent-pointer path back to the
// initial state. The observer emits into the product's own checker.
type Product struct {
	PState protocol.State
	Obs    *observer.Observer
	Chk    *checker.Checker
	// Key is the canonical key. The Explorer leaves it empty on the
	// products it queues or parks: their keys already sit in the visited
	// set or in a claim.
	Key   string
	FP    uint64
	Depth int
	node  *pathNode
	ferr  error // the checker's rejection during the current advance
}

// NewProduct builds the initial product state of p.
func NewProduct(p protocol.Protocol, po ProductOptions) *Product {
	e := &Product{PState: p.Initial()}
	e.Obs = observer.New(p, po.Generator, observer.Config{PoolSize: po.PoolSize}, e.feed)
	e.Chk = checker.New(e.Obs.K())
	e.Chk.SetParams(p.Params())
	e.rekey()
	return e
}

// feed is the observer's sink: it steps the product's own checker.
func (e *Product) feed(sym descriptor.Symbol) error {
	if err := e.Chk.Step(sym); err != nil {
		e.ferr = err
		return err
	}
	return nil
}

// fork returns a compact deep copy of e's protocol, observer and checker
// state, bound to its own checker; key and path are left to the caller.
func (e *Product) fork() *Product {
	ne := &Product{PState: e.PState, Chk: e.Chk.Clone(), Depth: e.Depth}
	ne.Obs = e.Obs.Clone(ne.feed)
	return ne
}

// advance applies one transition in place. A non-nil error is a
// rejection; e is then left mid-step and must be discarded or overwritten.
func (e *Product) advance(tr protocol.Transition) error {
	e.ferr = nil
	if err := e.Obs.Step(tr); err != nil {
		if e.ferr != nil {
			return e.ferr
		}
		return err
	}
	e.PState = tr.Next
	e.Depth++
	return nil
}

// finish runs the end-of-run check in place: the observer completes the ST
// order into the checker and the checker's Finish runs. When the generator
// has nothing left to serialize it uses the checker's non-mutating
// FinishDry instead, leaving e intact.
func (e *Product) finish() error {
	if e.Obs.FinishIsNoOp() {
		return e.Chk.FinishDry()
	}
	e.ferr = nil
	if err := e.Obs.Finish(); err != nil {
		if e.ferr != nil {
			return e.ferr
		}
		return err
	}
	return e.Chk.Finish()
}

func (e *Product) rekey() {
	key, _ := e.appendKey(nil, nil)
	e.Key = string(key)
	e.FP = FingerprintBytes(key)
}

// Path materializes the transition-index path from the initial state.
func (e *Product) Path() []int { return e.node.indices() }

// Step clones the product state and applies one protocol transition
// through the observer into the checker. A non-nil error is a rejection:
// the run extended by this transition is not SC-consistent. Step is the
// slow path the Explorer's in-place scratch stepping is tested against.
func (e *Product) Step(tr protocol.Transition, idx int) (*Product, error) {
	ne := e.fork()
	if err := ne.advance(tr); err != nil {
		return nil, err
	}
	ne.node = &pathNode{parent: e.node, idx: int32(idx)}
	ne.rekey()
	return ne, nil
}

// FinishCheck verifies that stopping the run at this state is accepted:
// the observer completes the ST order and the checker's end-of-stream
// checks pass (every run prefix is itself a run, so every reachable state
// must finish cleanly). When the generator has nothing left to serialize
// the check runs in place via the checker's non-mutating FinishDry;
// otherwise the pipeline is cloned.
func (e *Product) FinishCheck() error {
	if e.Obs.FinishIsNoOp() {
		return e.Chk.FinishDry()
	}
	return e.fork().finish()
}

// Violation carries a rejection discovered during exploration: the
// rejection cause and the transition-index path that reproduces it.
type Violation struct {
	Err  error
	Path []int
}

// ReplayProduct rebuilds the product state at the end of path by
// replaying the transition indices from the initial state, stepping one
// product in place — the state transfer used for cross-shard work items,
// which ship as paths because the deterministic Transitions order makes a
// path a compact, canonical serialization of any reachable product state.
// A rejection along the way is returned as a Violation (the path prefix is
// a counterexample); a structurally impossible path (index out of range)
// is an error — a corrupt or mismatched work item, never a protocol
// verdict.
func ReplayProduct(p protocol.Protocol, po ProductOptions, path []int) (*Product, *Violation, error) {
	e := NewProduct(p, po)
	for n, idx := range path {
		trs := p.Transitions(e.PState)
		if idx < 0 || idx >= len(trs) {
			return nil, nil, fmt.Errorf("mc: replay step %d: transition index %d out of range (%d available)", n, idx, len(trs))
		}
		if err := e.advance(trs[idx]); err != nil {
			return nil, &Violation{Err: err, Path: append(append([]int(nil), path[:n]...), idx)}, nil
		}
		e.node = &pathNode{parent: e.node, idx: int32(idx)}
	}
	if len(path) > 0 {
		e.rekey()
	}
	return e, nil, nil
}

// appendKey appends the product's canonical key to dst: (protocol state,
// observer state, checker state), each behind a 4-byte little-endian
// length so components cannot alias. Observer and checker keys are taken
// under the observer's canonical ID renaming so that runs differing only
// in ID-pool allocation history merge. rename is reused as storage for
// that permutation; both grown slices are returned.
func (e *Product) appendKey(dst []byte, rename []int) ([]byte, []int) {
	rename = e.Obs.AppendCanonicalRename(rename[:0])
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, e.PState.Key()...)
	dst = patchLen(dst, at)
	at = len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = e.Obs.AppendCanonicalKey(dst, rename)
	dst = patchLen(dst, at)
	at = len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = e.Chk.AppendStateKeyRenamed(dst, rename)
	dst = patchLen(dst, at)
	return dst, rename
}

// patchLen writes the length of the chunk that follows the 4-byte
// placeholder at dst[at:].
func patchLen(dst []byte, at int) []byte {
	n := len(dst) - at - 4
	dst[at], dst[at+1], dst[at+2], dst[at+3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return dst
}

package mc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scverify/internal/protocol"
)

// The Explorer is the shared exploration engine under both the
// single-node Verify and the distributed scmc fabric. It replaces the old
// level-synchronized BFS with a shared-queue worker pool: workers pull
// ready states, expand them, and feed successors straight back — no
// barrier between depths, so no worker idles waiting for the slowest
// expansion of a level.
//
// In distributed mode the engine is one shard of a grid. Ownership of the
// visited set is partitioned by rendezvous hashing over the shard
// identity list (OwnerShard), and cross-shard coordination rides four
// item kinds relayed through the coordinator:
//
//   - ItemClaim: this shard produced a successor owned elsewhere. The
//     concrete state stays parked at the producer; only the fingerprint
//     (plus the exact key in exact/audit modes) and depth travel to the
//     owner, which adjudicates it against its visited shard.
//   - ItemReply: the owner's adjudication comes back; the producer drops
//     the parked state (dup) or expands it (fresh/improved) — so in
//     steady state, expansion work stays where states are materialized
//     and only O(bytes) claims cross the wire.
//   - ItemWork: a state shipped as a transition-index path (the seed, and
//     queue migration between shards); the receiver replays it.
//   - ItemShed: the coordinator's work-stealing lever — "move up to N of
//     your ready queue to shard T" — which spreads expansion work when
//     claims alone would concentrate it at the seeding shard.
//
// Every delivered and emitted item is counted (itemsIn/itemsOut, guarded
// by mu together with pending so a Report is a consistent credit
// snapshot); the coordinator's credit-counting quiescence matches those
// counters against its own routing totals, and only a fully matched,
// all-idle grid may yield a verified verdict.
type Explorer struct {
	p  protocol.Protocol
	po ProductOptions

	cfg         ExplorerConfig
	shardHashes []uint64 // nil for single-shard: everything is local
	visited     visitedSet
	obsVisited  visitedSet // TrackObserverStates only

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	qhead    int
	pending  int64 // queued + in-flight + parked work units, guarded by mu
	itemsIn  int64 // delivered items, guarded by mu (credit counter)
	itemsOut int64 // emitted items, guarded by mu (credit counter)
	parked   map[uint64]*Product
	nextSeq  uint64
	outBuf   []Item
	stopped  bool
	capped   bool
	depthOut bool // some state was left unexpanded by MaxDepth
	failed   error
	viol     *Violation

	stopFlag    atomic.Bool
	transitions atomic.Int64
	peakIDs     atomic.Int64
	maxDepth    atomic.Int64

	wg sync.WaitGroup
}

// ExplorerConfig wires one engine instance. Workers, MaxStates and
// MaxDepth mirror Options; the rest is the distributed surface.
type ExplorerConfig struct {
	// Shard is this engine's index in ShardIDs.
	Shard int
	// ShardIDs is the ordered shard identity list (backend addresses) the
	// ownership partition is computed over. Empty or length 1 means a
	// single-shard (fully local) exploration.
	ShardIDs []string
	// Workers is the number of expansion goroutines; 0 means GOMAXPROCS.
	Workers int
	// MaxStates caps fresh claims in this engine's visited shard; 0 means
	// 4M. Hitting the cap stops the engine (verdict degrades to
	// incomplete, never to a wrong verified).
	MaxStates int
	// MaxDepth bounds run length; 0 means unbounded. Bounded runs use
	// min-depth relaxation so the explored set equals the BFS-bounded set
	// regardless of worker count or shard interleaving.
	MaxDepth int
	// Exact switches the visited set to exact canonical keys; Audit keeps
	// fingerprints but retains keys to count genuine collisions.
	Exact bool
	Audit bool
	// StepDelay sleeps this long before each state expansion: a simulated
	// per-state latency that tests use to slow exploration down.
	StepDelay time.Duration
	// TrackObserverStates additionally counts distinct observer-component
	// states, for the Section 4.4 size-bound experiment.
	TrackObserverStates bool

	// Emit receives batches of outgoing cross-shard items. Required when
	// len(ShardIDs) > 1; items are relayed to Deliver on the owning
	// shard's engine by the coordinator.
	Emit func(items []Item)
	// OnViolation fires once, on the first rejection this engine finds.
	OnViolation func(path []int, err error)
	// OnIdle fires whenever the engine's pending count reaches zero, after
	// buffered items have been emitted — the hook distributed sessions use
	// to publish a credit report.
	OnIdle func()
}

// ItemKind tags a cross-shard item.
type ItemKind uint8

const (
	// ItemWork ships a state as a transition-index path to replay.
	ItemWork ItemKind = iota
	// ItemClaim asks a state's owner to adjudicate its fingerprint.
	ItemClaim
	// ItemReply returns the owner's adjudication to the producer.
	ItemReply
	// ItemShed asks a shard to migrate ready queue entries to another.
	ItemShed
)

// Act encodes an adjudication outcome — what the holder of the concrete
// state should do with it. ActClaim is the pre-adjudication state of a
// work item (the seed): claim it with its owner first.
type Act uint8

const (
	ActClaim       Act = iota // not yet adjudicated
	ActDup                    // covered; drop
	ActFreshFinish            // fresh at the depth bound: finish-check only
	ActFreshExpand            // fresh: finish-check, then expand (counted)
	ActExpandCount            // depth improved: re-expand, charge fan-out
	ActExpand                 // depth improved: re-expand, already charged
)

// Item is one unit of cross-shard coordination. Peer is the destination
// shard when emitted and the source shard when delivered (the coordinator
// rewrites it in flight).
type Item struct {
	Kind ItemKind
	Peer int

	// ItemWork: the path to replay and what to do with the result.
	Act  Act
	Path []int

	// ItemClaim: producer-chosen correlation tag, fingerprint, discovery
	// depth, and — in exact/audit modes — the canonical key bytes.
	// ItemReply: Seq echoes the claim, Act carries the adjudication.
	Seq   uint64
	FP    uint64
	Depth int
	Key   []byte

	// ItemShed: migrate up to N ready entries to shard Target.
	N      int
	Target int
}

// Report is a consistent snapshot of one engine's counters — the credit
// accounting the coordinator's quiescence detection runs on, plus the
// exploration totals the final Result aggregates.
type Report struct {
	Shard       int
	ItemsIn     int64
	ItemsOut    int64
	States      int64
	Transitions int64
	PeakIDs     int
	Depth       int
	Pending     int64
	QueueLen    int64
	Collisions  int64
	Capped      bool
	DepthCapped bool
	Failed      bool
	Err         string
}

// job is one queued unit: a concrete product state, or a path to replay.
type job struct {
	prod *Product
	path []int
	act  Act
}

// emitBatch is how many buffered outgoing items force a flush.
const emitBatch = 128

// NewExplorer builds and starts one exploration engine.
func NewExplorer(p protocol.Protocol, po ProductOptions, cfg ExplorerConfig) (*Explorer, error) {
	if n := len(cfg.ShardIDs); n > 1 {
		if cfg.Shard < 0 || cfg.Shard >= n {
			return nil, fmt.Errorf("mc: shard %d outside 0..%d", cfg.Shard, n-1)
		}
		if cfg.Emit == nil {
			return nil, errors.New("mc: multi-shard explorer needs an Emit hook")
		}
	} else {
		cfg.Shard = 0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 4 << 20
	}
	x := &Explorer{
		p:       p,
		po:      po,
		cfg:     cfg,
		visited: newVisitedSet(cfg.Exact, cfg.Audit, cfg.MaxDepth > 0),
		parked:  make(map[uint64]*Product),
	}
	if len(cfg.ShardIDs) > 1 {
		x.shardHashes = ShardHashes(cfg.ShardIDs)
	}
	if cfg.TrackObserverStates {
		x.obsVisited = newExactVisited(false)
	}
	x.cond = sync.NewCond(&x.mu)
	for i := 0; i < cfg.Workers; i++ {
		x.wg.Add(1)
		go x.worker()
	}
	return x, nil
}

// Seed enqueues the initial product state. In a grid, only the
// coordinator seeds (one work item routed to shard 0); locally, Verify
// calls it once.
func (x *Explorer) Seed() {
	x.Deliver([]Item{{Kind: ItemWork, Act: ActClaim}})
}

// Deliver feeds a batch of items from the coordinator (or, locally, the
// seed). Claim adjudication happens inline — it is a map operation — and
// everything else is queued for the worker pool.
func (x *Explorer) Deliver(items []Item) {
	for i := range items {
		it := &items[i]
		if x.stopFlag.Load() {
			x.mu.Lock()
			x.itemsIn++
			x.mu.Unlock()
			continue
		}
		switch it.Kind {
		case ItemWork:
			x.mu.Lock()
			x.itemsIn++
			if it.Act != ActDup {
				x.pending++
				x.queue = append(x.queue, &job{path: it.Path, act: it.Act})
				x.cond.Signal()
			}
			x.mu.Unlock()
		case ItemClaim:
			if (x.cfg.Exact || x.cfg.Audit) && len(it.Key) == 0 {
				x.fail(errors.New("mc: claim without key in exact-key mode"))
				x.mu.Lock()
				x.itemsIn++
				x.mu.Unlock()
				continue
			}
			a := x.adjudicate(it.Key, it.FP, it.Depth)
			x.mu.Lock()
			x.itemsIn++
			out := x.enqueueOutLocked(Item{Kind: ItemReply, Peer: it.Peer, Seq: it.Seq, Act: a})
			x.mu.Unlock()
			x.emit(out)
		case ItemReply:
			x.mu.Lock()
			x.itemsIn++
			prod := x.parked[it.Seq]
			delete(x.parked, it.Seq)
			if prod != nil {
				if it.Act == ActDup || it.Act == ActClaim {
					x.pending--
					if x.pending == 0 {
						x.cond.Broadcast()
					}
				} else {
					x.queue = append(x.queue, &job{prod: prod, act: it.Act})
					x.cond.Signal()
				}
			}
			x.mu.Unlock()
		case ItemShed:
			x.mu.Lock()
			x.itemsIn++
			x.mu.Unlock()
			x.shed(it.N, it.Target)
		}
	}
	x.flushOut()
	x.maybeIdle()
}

// Report snapshots the counters. Pending, queue length and the credit
// counters are read under one lock so the snapshot is consistent: a
// report claiming pending==0 with itemsIn==N really did process all N
// delivered items before going idle.
func (x *Explorer) Report() Report {
	x.mu.Lock()
	r := Report{
		Shard:       x.cfg.Shard,
		ItemsIn:     x.itemsIn,
		ItemsOut:    x.itemsOut,
		Pending:     x.pending,
		QueueLen:    int64(len(x.queue) - x.qhead),
		Capped:      x.capped,
		DepthCapped: x.depthOut,
	}
	if x.failed != nil {
		r.Failed = true
		r.Err = x.failed.Error()
	}
	x.mu.Unlock()
	r.States = x.visited.size()
	r.Transitions = x.transitions.Load()
	r.PeakIDs = int(x.peakIDs.Load())
	r.Depth = int(x.maxDepth.Load())
	r.Collisions = x.visited.collisions()
	return r
}

// Wait blocks until the engine is idle (pending == 0) or stopped. For a
// single-shard engine, idle means exploration is complete.
func (x *Explorer) Wait() {
	x.mu.Lock()
	for !x.stopped && x.pending > 0 {
		x.cond.Wait()
	}
	x.mu.Unlock()
}

// Stop halts the engine and joins its workers. Idempotent.
func (x *Explorer) Stop() {
	x.halt()
	x.wg.Wait()
}

// Violation returns the first rejection found, if any.
func (x *Explorer) Violation() *Violation {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.viol
}

// Failed returns the engine's structural failure, if any (corrupt work
// item, mode mismatch) — an error, never a protocol verdict.
func (x *Explorer) Failed() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.failed
}

// ObserverStates reports the distinct observer-component state count when
// TrackObserverStates was set.
func (x *Explorer) ObserverStates() int {
	if x.obsVisited == nil {
		return 0
	}
	return int(x.obsVisited.size())
}

func (x *Explorer) worker() {
	defer x.wg.Done()
	s := newScratch(x.p, x.po)
	for {
		x.mu.Lock()
		for !x.stopped && x.qhead >= len(x.queue) {
			x.cond.Wait()
		}
		if x.stopped {
			x.mu.Unlock()
			return
		}
		j := x.queue[x.qhead]
		x.queue[x.qhead] = nil
		x.qhead++
		if x.qhead > 256 && x.qhead*2 >= len(x.queue) {
			n := copy(x.queue, x.queue[x.qhead:])
			for i := n; i < len(x.queue); i++ {
				x.queue[i] = nil
			}
			x.queue = x.queue[:n]
			x.qhead = 0
		}
		x.mu.Unlock()

		x.process(j, s)

		x.mu.Lock()
		x.pending--
		if x.pending == 0 {
			x.cond.Broadcast()
		}
		x.mu.Unlock()
		x.flushOut()
		x.maybeIdle()
	}
}

func (x *Explorer) process(j *job, s *scratch) {
	if x.stopFlag.Load() {
		return
	}
	prod := j.prod
	if prod == nil {
		var rej *Violation
		var err error
		prod, rej, err = ReplayProduct(x.p, x.po, j.path)
		if err != nil {
			x.fail(err)
			return
		}
		if rej != nil {
			x.violate(rej.Path, rej.Err)
			return
		}
	}
	x.act(prod, j.act, s)
}

// act carries a concrete state through its adjudication outcome.
func (x *Explorer) act(prod *Product, a Act, s *scratch) {
	if a == ActClaim {
		key := []byte(prod.Key)
		if owner := x.ownerOf(prod.FP); owner != x.cfg.Shard {
			x.park(prod, key, owner)
			return
		}
		a = x.adjudicate(key, prod.FP, prod.Depth)
	}
	switch a {
	case ActFreshFinish, ActFreshExpand:
		x.noteFresh(prod)
		if err := s.finishCheck(prod); err != nil {
			x.violate(prod.Path(), err)
			return
		}
		if a == ActFreshExpand {
			x.expand(prod, true, s)
		}
	case ActExpandCount:
		x.expand(prod, true, s)
	case ActExpand:
		x.expand(prod, false, s)
	}
}

// adjudicate is the owner side of a claim: visited dedup with min-depth
// relaxation, state accounting, and cap flagging.
func (x *Explorer) adjudicate(key []byte, fp uint64, depth int) Act {
	fresh, expand := x.visited.claim(key, fp, depth)
	if fresh {
		if max := x.cfg.MaxStates; max > 0 && x.visited.size() >= int64(max) {
			x.setCapped()
		}
	}
	if !expand {
		return ActDup
	}
	if x.cfg.MaxDepth > 0 && depth >= x.cfg.MaxDepth {
		x.noteDepthCapped()
		if fresh {
			return ActFreshFinish
		}
		return ActDup
	}
	counted := x.visited.countExpand(key, fp)
	switch {
	case fresh:
		return ActFreshExpand
	case counted:
		return ActExpandCount
	default:
		return ActExpand
	}
}

// expand generates and adjudicates all successors of e. count charges the
// fan-out to the transition counter (granted once per state). Each
// successor is stepped in the worker's scratch; only successors that are
// fresh, improved or owned by another shard are cloned out of it.
func (x *Explorer) expand(e *Product, count bool, s *scratch) {
	if d := x.cfg.StepDelay; d > 0 {
		time.Sleep(d)
	}
	trs := x.p.Transitions(e.PState)
	if count {
		x.transitions.Add(int64(len(trs)))
	}
	for i, tr := range trs {
		if x.stopFlag.Load() {
			return
		}
		if err := s.step(e, tr, i); err != nil {
			x.violate(append(e.Path(), i), err)
			return
		}
		if owner := x.ownerOf(s.prod.FP); owner != x.cfg.Shard {
			x.park(s.materialize(), s.key, owner)
			continue
		}
		switch a := x.adjudicate(s.key, s.prod.FP, s.prod.Depth); a {
		case ActDup:
		case ActFreshFinish, ActFreshExpand:
			ne := s.materialize()
			x.noteFresh(ne)
			// The scratch still holds ne's state and is overwritten by the
			// next step anyway, so the finish check may consume it.
			if err := s.prod.finish(); err != nil {
				x.violate(ne.Path(), err)
				return
			}
			if a == ActFreshExpand {
				x.push(ne, ActExpandCount)
			}
		default:
			x.push(s.materialize(), a)
		}
	}
}

// park holds a cross-shard successor locally and emits its claim; the
// concrete state never travels unless the coordinator migrates it. key is
// the successor's canonical key, sent in exact/audit modes.
func (x *Explorer) park(prod *Product, key []byte, owner int) {
	it := Item{Kind: ItemClaim, Peer: owner, FP: prod.FP, Depth: prod.Depth}
	if x.cfg.Exact || x.cfg.Audit {
		it.Key = append([]byte(nil), key...)
	}
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	x.nextSeq++
	it.Seq = x.nextSeq
	x.parked[it.Seq] = prod
	x.pending++
	out := x.enqueueOutLocked(it)
	x.mu.Unlock()
	x.emit(out)
}

// shed migrates up to n ready queue entries to shard target, shipping
// each as a path work item that preserves its adjudication state.
func (x *Explorer) shed(n, target int) {
	if n <= 0 || target == x.cfg.Shard || target < 0 || target >= len(x.cfg.ShardIDs) {
		return
	}
	var out []Item
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	for n > 0 && x.qhead < len(x.queue) {
		j := x.queue[x.qhead]
		x.queue[x.qhead] = nil
		x.qhead++
		path := j.path
		if j.prod != nil {
			path = j.prod.Path()
		}
		x.itemsOut++
		out = append(out, Item{Kind: ItemWork, Peer: target, Act: j.act, Path: path})
		x.pending--
		n--
	}
	if x.pending == 0 {
		x.cond.Broadcast()
	}
	x.mu.Unlock()
	x.emit(out)
}

func (x *Explorer) push(prod *Product, a Act) {
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	x.pending++
	x.queue = append(x.queue, &job{prod: prod, act: a})
	x.cond.Signal()
	x.mu.Unlock()
}

func (x *Explorer) ownerOf(fp uint64) int {
	if x.shardHashes == nil {
		return x.cfg.Shard
	}
	return OwnerShard(fp, x.shardHashes)
}

func (x *Explorer) noteFresh(prod *Product) {
	if st := prod.Obs.Stats(); st.PeakIDs > 0 {
		atomicMax(&x.peakIDs, int64(st.PeakIDs))
	}
	atomicMax(&x.maxDepth, int64(prod.Depth))
	if x.obsVisited != nil {
		key := prod.Obs.CanonicalKey(prod.Obs.CanonicalRename())
		x.obsVisited.claim(key, FingerprintBytes(key), prod.Depth)
	}
}

// enqueueOutLocked buffers an outgoing item (mu held) and returns a batch
// to emit once the buffer fills; the caller emits after unlocking.
func (x *Explorer) enqueueOutLocked(it Item) []Item {
	x.itemsOut++
	x.outBuf = append(x.outBuf, it)
	if len(x.outBuf) >= emitBatch {
		out := x.outBuf
		x.outBuf = nil
		return out
	}
	return nil
}

func (x *Explorer) flushOut() {
	x.mu.Lock()
	out := x.outBuf
	x.outBuf = nil
	x.mu.Unlock()
	x.emit(out)
}

func (x *Explorer) emit(items []Item) {
	if len(items) > 0 && x.cfg.Emit != nil {
		x.cfg.Emit(items)
	}
}

// maybeIdle publishes an idle transition: flush first so every counted
// emission is on the wire before the report that accounts for it.
func (x *Explorer) maybeIdle() {
	x.mu.Lock()
	idle := x.pending == 0 && !x.stopped
	var out []Item
	if idle {
		out = x.outBuf
		x.outBuf = nil
	}
	x.mu.Unlock()
	if !idle {
		return
	}
	x.emit(out)
	if x.cfg.OnIdle != nil {
		x.cfg.OnIdle()
	}
}

func (x *Explorer) violate(path []int, err error) {
	x.mu.Lock()
	first := x.viol == nil && x.failed == nil && !x.stopped
	if first {
		x.viol = &Violation{Err: err, Path: path}
	}
	x.haltLocked()
	x.mu.Unlock()
	if first && x.cfg.OnViolation != nil {
		x.cfg.OnViolation(path, err)
	}
}

func (x *Explorer) fail(err error) {
	x.mu.Lock()
	if x.failed == nil && x.viol == nil {
		x.failed = err
	}
	x.haltLocked()
	x.mu.Unlock()
}

func (x *Explorer) setCapped() {
	x.mu.Lock()
	x.capped = true
	x.haltLocked()
	x.mu.Unlock()
}

func (x *Explorer) noteDepthCapped() {
	x.mu.Lock()
	x.depthOut = true
	x.mu.Unlock()
}

func (x *Explorer) halt() {
	x.mu.Lock()
	x.haltLocked()
	x.mu.Unlock()
}

func (x *Explorer) haltLocked() {
	x.stopped = true
	x.stopFlag.Store(true)
	x.cond.Broadcast()
}

// scratch is one worker's reusable product: each successor is computed by
// copying its parent into the scratch (CopyFrom on checker and observer,
// reusing their storage), stepping it in place, and appending its key into
// a reused buffer. A compact Clone is made only for successors that
// survive adjudication. The scratch observer's emit stays bound to the
// scratch checker across copies.
type scratch struct {
	prod   *Product
	parent *pathNode // path of the state the scratch was stepped from
	idx    int       // the transition taken from it
	key    []byte
	rename []int
}

func newScratch(p protocol.Protocol, po ProductOptions) *scratch {
	return &scratch{prod: NewProduct(p, po)}
}

// load overwrites the scratch with src's state.
func (s *scratch) load(src *Product) {
	s.prod.Chk.CopyFrom(src.Chk)
	s.prod.Obs.CopyFrom(src.Obs)
	s.prod.PState, s.prod.Depth = src.PState, src.Depth
}

// step computes parent's successor under transition idx into the scratch,
// with its key in s.key and its fingerprint in s.prod.FP. parent is not
// modified.
func (s *scratch) step(parent *Product, tr protocol.Transition, idx int) error {
	s.load(parent)
	if err := s.prod.advance(tr); err != nil {
		return err
	}
	s.parent, s.idx = parent.node, idx
	s.key, s.rename = s.prod.appendKey(s.key[:0], s.rename)
	s.prod.FP = FingerprintBytes(s.key)
	return nil
}

// materialize returns a compact clone of the stepped successor.
func (s *scratch) materialize() *Product {
	ne := s.prod.fork()
	ne.FP = s.prod.FP
	ne.node = &pathNode{parent: s.parent, idx: int32(s.idx)}
	return ne
}

// finishCheck is Product.FinishCheck run in the scratch instead of on a
// clone of both halves.
func (s *scratch) finishCheck(prod *Product) error {
	if prod.Obs.FinishIsNoOp() {
		return prod.Chk.FinishDry()
	}
	s.load(prod)
	return s.prod.finish()
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

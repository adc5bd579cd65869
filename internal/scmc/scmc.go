// Package scmc is the distributed state-space exploration fabric: it
// coordinates a grid of scserve explore backends, each owning one shard
// of the visited set, through the model-checking engine of internal/mc.
//
// The coordinator never expands states itself. It preflights the backend
// pool (reusing scgrid's health probing), opens one explore session per
// healthy backend with the ordered shard identity list, seeds shard 0
// with the initial work item, and from then on is a pure relay with a
// ledger: every cross-shard item a backend emits is routed to the shard
// named in its Peer field (rewritten to the sender on the way through),
// and per-shard sent/received counts are balanced against the credit
// reports each backend publishes.
//
// Termination is credit-counting quiescence: the grid is done exactly
// when every shard reports pending == 0, has consumed every item the
// coordinator sent it, and the coordinator has received every item the
// shard reports having emitted. Because a backend's item frames precede
// the report that accounts for them on the same ordered stream, a
// quiescent ledger proves no work is queued, in flight, or parked
// anywhere — the hard precondition for emitting a verified verdict. Every
// abnormal path (backend death, state cap, stall, corrupt frame) degrades
// the verdict to incomplete, never to a wrong verified.
package scmc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"scverify/internal/mc"
	"scverify/internal/registry"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
	"scverify/internal/trace"
)

// Options tunes a distributed verification run.
type Options struct {
	// Protocol names the registry target every shard builds.
	Protocol string
	// Params are the trace parameters (procs, blocks, values).
	Params trace.Params
	// QueueCap is the registry queue-capacity parameter (0 = default).
	QueueCap int
	// MaxStatesPerShard caps each shard's visited set (0 = server
	// default). Aggregate capacity is shards × cap — how a grid verifies
	// configurations that exceed a single node's state budget.
	MaxStatesPerShard int
	// MaxDepth bounds exploration depth (0 = unbounded).
	MaxDepth int
	// Exact switches shards to exact-key visited sets; Audit keeps
	// fingerprints but counts collisions.
	Exact bool
	Audit bool
	// StallTimeout aborts the run (incomplete) when no frame arrives from
	// any backend for this long. Default 2m.
	StallTimeout time.Duration
	// Dial overrides the transport (tests inject failures or retain
	// connections). Defaults to a net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Log, when set, receives the coordinator's diagnostics as structured
	// events, and is handed to the preflight grid for its own.
	Log *slog.Logger
	// Progress, when set, is called (at most every ~100ms) with the
	// latest per-shard reports.
	Progress func(shards []ShardStats)
}

// ShardStats is one backend's slice of the final (or in-progress) grid
// accounting.
type ShardStats struct {
	Addr        string
	States      int64
	Transitions int64
	ItemsIn     int64
	ItemsOut    int64
	Collisions  int64
	Depth       int
	PeakIDs     int
}

// Result is the aggregated outcome of a distributed verification.
type Result struct {
	Protocol       string
	Verdict        mc.Verdict
	Err            error
	Counterexample []int
	States         int64
	Transitions    int64
	Depth          int
	PeakIDs        int
	Collisions     int64
	// Forwards counts cross-shard items the coordinator relayed.
	Forwards int64
	Shards   []ShardStats
	Elapsed  time.Duration
}

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("%s: %s — %d states, %d transitions, depth %d, %d shards, %d forwards, %v",
		r.Protocol, r.Verdict, r.States, r.Transitions, r.Depth, len(r.Shards), r.Forwards,
		r.Elapsed.Round(time.Millisecond))
	if r.Err != nil {
		s += fmt.Sprintf(" (%v)", r.Err)
	}
	return s
}

// shedThreshold is how deep a shard's ready queue must be (relative to
// an idle peer) before the coordinator migrates work to the idle shard.
const shedThreshold = 64

// eventKind tags a frame delivered by a backend reader.
type eventKind int

const (
	evItems eventKind = iota
	evReport
	evViolation
	evVerdict
	evError
)

type event struct {
	shard   int
	kind    eventKind
	items   []mc.Item
	report  mc.Report
	path    []int
	msg     string
	verdict scserve.Verdict
	err     error
}

// shardConn is the coordinator's handle on one backend session.
type shardConn struct {
	addr string
	conn net.Conn
	bw   *writerState

	sentTo   int64 // items routed to this shard
	recvFrom int64 // items received from this shard
	ready    bool  // first report seen
	last     mc.Report
	dead     bool
	accepted bool // end-phase accept verdict received
}

// Verify runs a distributed verification of the named protocol across
// the backends at addrs.
func Verify(ctx context.Context, addrs []string, opts Options) Result {
	start := time.Now()
	res := Result{Protocol: opts.Protocol}
	fail := func(err error) Result {
		res.Verdict = mc.Incomplete
		res.Err = err
		res.Elapsed = time.Since(start)
		return res
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 2 * time.Minute
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	// Build the target locally: the coordinator needs K for the hello
	// cross-check and the protocol for counterexample replay; it also
	// fails fast on an unknown protocol before touching the network.
	target, err := registry.Build(opts.Protocol, registry.Options{Params: opts.Params, QueueCap: opts.QueueCap})
	if err != nil {
		return fail(err)
	}
	k := target.K()

	// Preflight through scgrid: one synchronous probe round decides which
	// backends participate. The healthy list, in address order, IS the
	// shard identity list — every backend receives it verbatim in its
	// hello, so all shards compute the same rendezvous partition.
	grid, err := scgrid.New(addrs, scgrid.Config{ProbeInterval: -1, Seed: 1, Dial: dial, Log: opts.Log})
	if err != nil {
		return fail(err)
	}
	grid.ProbeNow()
	gs := grid.Stats()
	grid.Close()
	var shardIDs []string
	for _, b := range gs.Backends {
		if b.Healthy && !b.Draining {
			shardIDs = append(shardIDs, b.Addr)
		}
	}
	if len(shardIDs) == 0 {
		return fail(errors.New("scmc: no healthy backends"))
	}
	log.Info("scmc_preflight", "healthy", len(shardIDs), "backends", len(addrs), "k", k)

	mode := scserve.ExploreModeFP
	if opts.Exact {
		mode = scserve.ExploreModeExact
	} else if opts.Audit {
		mode = scserve.ExploreModeAudit
	}

	// Open one explore session per shard.
	shards := make([]*shardConn, len(shardIDs))
	events := newEventQueue()
	defer func() {
		for _, sc := range shards {
			if sc != nil && sc.conn != nil {
				sc.conn.Close()
			}
		}
	}()
	for i, addr := range shardIDs {
		conn, err := dial(ctx, addr)
		if err != nil {
			return fail(fmt.Errorf("scmc: dial shard %d (%s): %w", i, addr, err))
		}
		sc := &shardConn{addr: addr, conn: conn, bw: newWriterState(conn)}
		shards[i] = sc
		hello := scserve.Header{K: k, Params: opts.Params, Explore: &scserve.ExploreHeader{
			Protocol:  opts.Protocol,
			QueueCap:  opts.QueueCap,
			Shard:     i,
			Shards:    shardIDs,
			MaxStates: opts.MaxStatesPerShard,
			MaxDepth:  opts.MaxDepth,
			Mode:      mode,
		}}
		if err := sc.bw.writeFrame(scserve.FrameHello, scserve.AppendHello(nil, hello)); err != nil {
			return fail(fmt.Errorf("scmc: hello to shard %d (%s): %w", i, addr, err))
		}
		go readLoop(i, conn, events)
	}

	return run(ctx, start, res, shards, events, opts, log)
}

// run is the coordinator's central loop: route items, balance credits,
// detect quiescence or failure, then conclude the grid.
func run(ctx context.Context, start time.Time, res Result, shards []*shardConn, events *eventQueue, opts Options, log *slog.Logger) Result {
	stall := time.NewTimer(opts.StallTimeout)
	defer stall.Stop()

	var (
		seeded      bool
		ending      bool
		viol        *mc.Violation
		runErr      error
		lastProg    time.Time
		endDeadline <-chan time.Time
	)

	finishFail := func(err error) Result {
		res.Verdict = mc.Incomplete
		res.Err = err
		aggregate(&res, shards)
		res.Elapsed = time.Since(start)
		return res
	}

	// beginEnd transitions to the end phase: every live backend gets an
	// end frame and must answer with a final report and an accept verdict.
	beginEnd := func() {
		if ending {
			return
		}
		ending = true
		endDeadline = time.After(opts.StallTimeout)
		for _, sc := range shards {
			if sc.dead {
				continue
			}
			if err := sc.bw.writeFrame(scserve.FrameEnd, nil); err != nil {
				sc.dead = true
				if runErr == nil {
					runErr = fmt.Errorf("scmc: shard %s died at end: %w", sc.addr, err)
				}
			}
		}
	}

	// route relays one emitted item to the shard in its Peer field,
	// rewriting Peer to the sender so claims can be answered.
	route := func(from int, items []mc.Item) error {
		// Group per destination to keep frames batched.
		byDest := map[int][]mc.Item{}
		for _, it := range items {
			dest := it.Peer
			if dest < 0 || dest >= len(shards) {
				return fmt.Errorf("scmc: shard %d emitted item for unknown shard %d", from, dest)
			}
			it.Peer = from
			byDest[dest] = append(byDest[dest], it)
		}
		for dest, batch := range byDest {
			sc := shards[dest]
			if sc.dead {
				return fmt.Errorf("scmc: work routed to dead shard %s", sc.addr)
			}
			if err := sc.bw.writeFrame(scserve.FrameExplore, scserve.AppendExploreItems(nil, batch)); err != nil {
				sc.dead = true
				return fmt.Errorf("scmc: shard %s died: %w", sc.addr, err)
			}
			sc.sentTo += int64(len(batch))
			res.Forwards += int64(len(batch))
		}
		return nil
	}

	allDone := func() bool {
		for _, sc := range shards {
			if !sc.dead && !sc.accepted {
				return false
			}
		}
		return true
	}

	// handle processes one event; done reports that out is the final
	// result. The sentinel "continue" result is out == Result{} with done
	// false.
	handle := func(ev event) (out Result, done bool) {
		sc := shards[ev.shard]
		switch ev.kind {
		case evError:
			sc.dead = true
			if ending {
				// A backend allowed to die only AFTER its accept was
				// received does not taint the verdict.
				if !sc.accepted && runErr == nil {
					runErr = fmt.Errorf("scmc: shard %s died during end phase: %w", sc.addr, ev.err)
				}
				if allDone() {
					return conclude(start, res, shards, viol, runErr), true
				}
				return Result{}, false
			}
			return finishFail(fmt.Errorf("scmc: shard %d (%s) died mid-exploration: %w", ev.shard, sc.addr, ev.err)), true
		case evItems:
			sc.recvFrom += int64(len(ev.items))
			if ending {
				return Result{}, false // engines are stopping; late items are moot
			}
			if err := route(ev.shard, ev.items); err != nil {
				return finishFail(err), true
			}
		case evViolation:
			if viol == nil {
				viol = &mc.Violation{Err: errors.New(ev.msg), Path: ev.path}
				log.Info("scmc_violation", "shard", ev.shard, "depth", len(ev.path))
			}
			beginEnd()
		case evVerdict:
			if !ending || ev.verdict.Code != scserve.VerdictAccept {
				if runErr == nil {
					runErr = fmt.Errorf("scmc: shard %s verdict: %s", sc.addr, ev.verdict.String())
				}
				sc.dead = true
				if !ending {
					return finishFail(runErr), true
				}
			} else {
				sc.accepted = true
			}
			if ending && allDone() {
				return conclude(start, res, shards, viol, runErr), true
			}
		case evReport:
			sc.ready = true
			sc.last = ev.report
			if opts.Progress != nil && time.Since(lastProg) >= 100*time.Millisecond {
				lastProg = time.Now()
				opts.Progress(snapshot(shards))
			}
			if ending {
				return Result{}, false
			}
			if ev.report.Failed {
				return finishFail(fmt.Errorf("scmc: shard %s failed: %s", sc.addr, ev.report.Err)), true
			}
			if ev.report.Capped {
				return finishFail(fmt.Errorf("scmc: shard %s hit its state cap", sc.addr)), true
			}
			if !seeded {
				if allReady(shards) {
					seeded = true
					log.Info("scmc_seed", "shards", len(shards))
					if err := route(0, []mc.Item{{Kind: mc.ItemWork, Peer: 0, Act: mc.ActClaim}}); err != nil {
						return finishFail(err), true
					}
				}
				return Result{}, false
			}
			if quiescent(shards) {
				log.Info("scmc_quiescent", "relayed", res.Forwards)
				beginEnd()
				return Result{}, false
			}
			maybeShed(shards, ev.shard, route, log)
		}
		return Result{}, false
	}

	for {
		// Drain every queued event before sleeping; the queue is
		// unbounded, so draining is the only backpressure there is.
		for {
			ev, ok := events.pop()
			if !ok {
				break
			}
			if !stall.Stop() {
				select {
				case <-stall.C:
				default:
				}
			}
			stall.Reset(opts.StallTimeout)
			if out, done := handle(ev); done {
				return out
			}
		}
		select {
		case <-ctx.Done():
			return finishFail(ctx.Err())
		case <-stall.C:
			return finishFail(fmt.Errorf("scmc: no backend activity for %v", opts.StallTimeout))
		case <-endDeadline:
			return finishFail(errors.New("scmc: end phase timed out"))
		case <-events.notify:
		}
	}
}

// allReady reports whether every live shard has published its first
// report (the ready signal gating the seed).
func allReady(shards []*shardConn) bool {
	for _, sc := range shards {
		if sc.dead || !sc.ready {
			return false
		}
	}
	return true
}

// quiescent is the credit-counting termination predicate: every shard
// idle, every item the coordinator sent consumed, every item a shard
// emitted received. Reports are consistent snapshots (mc.Explorer takes
// the counters under one lock) and item frames precede the report
// accounting them on the same TCP stream, so a balanced ledger here
// proves the grid-wide frontier is empty. Any skew — a report older than
// an in-flight frame, a delivery not yet processed — shows up as an
// imbalance and just delays the verdict; it can never fake one.
func quiescent(shards []*shardConn) bool {
	for _, sc := range shards {
		if sc.dead || !sc.ready {
			return false
		}
		r := sc.last
		if r.Pending != 0 || r.ItemsIn != sc.sentTo || r.ItemsOut != sc.recvFrom {
			return false
		}
	}
	return true
}

// maybeShed migrates ready work from the reporting shard to an idle one
// when the queue imbalance is worth a round trip — the coordinator's
// work-stealing lever for partitions that concentrate expansion work.
func maybeShed(shards []*shardConn, from int, route func(int, []mc.Item) error, log *slog.Logger) {
	src := shards[from]
	if src.last.QueueLen < 2*shedThreshold {
		return
	}
	for target, sc := range shards {
		if target == from || sc.dead || !sc.ready {
			continue
		}
		if sc.last.Pending == 0 && sc.last.QueueLen == 0 {
			n := int(src.last.QueueLen / 2)
			log.Info("scmc_shed", "jobs", n, "from", from, "to", target)
			// A shed instruction is an ordinary routed item; the ledger
			// accounts it like any other delivery.
			_ = route(target, []mc.Item{{Kind: mc.ItemShed, Peer: from, N: n, Target: target}})
			// Invalidate the stale idle report so one busy report cannot
			// shed to the same target twice before it re-reports.
			sc.last.QueueLen = -1
			return
		}
	}
}

// snapshot renders the current per-shard reports for Progress.
func snapshot(shards []*shardConn) []ShardStats {
	out := make([]ShardStats, len(shards))
	for i, sc := range shards {
		out[i] = ShardStats{
			Addr:        sc.addr,
			States:      sc.last.States,
			Transitions: sc.last.Transitions,
			ItemsIn:     sc.last.ItemsIn,
			ItemsOut:    sc.last.ItemsOut,
			Collisions:  sc.last.Collisions,
			Depth:       sc.last.Depth,
			PeakIDs:     sc.last.PeakIDs,
		}
	}
	return out
}

// aggregate folds the last per-shard reports into the result totals.
func aggregate(res *Result, shards []*shardConn) {
	res.Shards = snapshot(shards)
	res.States, res.Transitions, res.Collisions = 0, 0, 0
	res.Depth, res.PeakIDs = 0, 0
	for _, sh := range res.Shards {
		res.States += sh.States
		res.Transitions += sh.Transitions
		res.Collisions += sh.Collisions
		if sh.Depth > res.Depth {
			res.Depth = sh.Depth
		}
		if sh.PeakIDs > res.PeakIDs {
			res.PeakIDs = sh.PeakIDs
		}
	}
}

// conclude builds the final result after a clean end phase.
func conclude(start time.Time, res Result, shards []*shardConn, viol *mc.Violation, runErr error) Result {
	aggregate(&res, shards)
	switch {
	case viol != nil:
		res.Verdict = mc.Violated
		res.Err = viol.Err
		res.Counterexample = viol.Path
	case runErr != nil:
		res.Verdict = mc.Incomplete
		res.Err = runErr
	default:
		// Check the final reports one last time: verified requires that
		// every shard ended clean and the final credit ledger balances.
		for _, sc := range shards {
			r := sc.last
			if sc.dead || !sc.accepted || r.Failed || r.Capped {
				res.Verdict = mc.Incomplete
				res.Err = fmt.Errorf("scmc: shard %s did not conclude cleanly", sc.addr)
				res.Elapsed = time.Since(start)
				return res
			}
			if r.DepthCapped {
				res.Verdict = mc.Incomplete
			}
		}
		if res.Verdict != mc.Incomplete {
			res.Verdict = mc.Verified
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// readLoop is one backend's reader goroutine: it decodes frames into
// events until the connection dies or the coordinator finishes.
func readLoop(shard int, conn net.Conn, events *eventQueue) {
	br := newReader(conn)
	deliver := func(ev event) {
		ev.shard = shard
		events.push(ev)
	}
	for {
		typ, payload, err := readRaw(br)
		if err != nil {
			deliver(event{kind: evError, err: err})
			return
		}
		switch typ {
		case scserve.FrameExploreFwd:
			items, perr := scserve.ParseExploreItems(payload)
			if perr != nil {
				deliver(event{kind: evError, err: perr})
				return
			}
			deliver(event{kind: evItems, items: items})
		case scserve.FrameExploreRep:
			r, perr := scserve.ParseExploreReport(payload)
			if perr != nil {
				deliver(event{kind: evError, err: perr})
				return
			}
			deliver(event{kind: evReport, report: r})
		case scserve.FrameExploreViol:
			path, msg, perr := scserve.ParseExploreViolation(payload)
			if perr != nil {
				deliver(event{kind: evError, err: perr})
				return
			}
			deliver(event{kind: evViolation, path: path, msg: msg})
		case scserve.FrameVerdict:
			v, perr := scserve.ParseVerdict(payload)
			if perr != nil {
				deliver(event{kind: evError, err: perr})
				return
			}
			deliver(event{kind: evVerdict, verdict: v})
		case scserve.FrameStatsReply:
			// ignore
		default:
			deliver(event{kind: evError, err: fmt.Errorf("scmc: unexpected frame type %#x", typ)})
			return
		}
	}
}

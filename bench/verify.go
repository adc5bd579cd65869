package main

import (
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/mc"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/trace"
)

// verifySize fixes the verify-mc configuration and its pinned counts.
type verifySize struct {
	protocol string
	params   trace.Params
	// states and transitions are what exhaustive exploration must find;
	// any other count is a wrong answer.
	states, transitions int
}

const (
	// verifyWorkers is mc.Verify's worker count: one per CPU here.
	verifyWorkers = 2
	// probeEvery: the traced search re-times clone, key and fingerprint
	// on every this many successors.
	probeEvery = 8
)

var verifyMCSize = verifySize{
	protocol:    "writethrough",
	params:      trace.Params{Procs: 2, Blocks: 1, Values: 1},
	states:      37620,
	transitions: 188100,
}

// verifyMC repeats one exhaustive mc.Verify: the model checker's inner
// loop (successor step with checker and observer clones, product key,
// fingerprint, visited-set claim). The search is exhaustive, so the seed
// does not change its input.
func verifyMC(sz verifySize) workload {
	return workload{
		name:    "verify-mc",
		clients: 1,
		warmup:  0, // one discarded run
		setup:   func(int64) (instance, error) { return setupVerify(sz) },
	}
}

type verifyInst struct {
	sz  verifySize
	tgt registry.Target
	po  mc.ProductOptions

	// Totals of the traced serial searches.
	stepNs, wastedNs float64
	bfsStates        int
	bfsTransitions   int
}

func setupVerify(sz verifySize) (*verifyInst, error) {
	tgt, err := registry.Build(sz.protocol, registry.Options{Params: sz.params})
	if err != nil {
		return nil, err
	}
	return &verifyInst{sz: sz, tgt: tgt, po: mc.ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator}}, nil
}

func (v *verifyInst) close()       {}
func (v *verifyInst) check() error { return nil }

// request runs mc.Verify untraced; traced, it runs the serial search that
// reaches the same states through mc's public API.
func (v *verifyInst) request(_ int, req int64, tr *tracer) (float64, bool, error) {
	if tr != nil {
		states, _, err := v.bfs(tr)
		return float64(states), false, err
	}
	res := mc.Verify(v.tgt.Protocol, mc.Options{
		Workers:   verifyWorkers,
		PoolSize:  v.tgt.PoolSize,
		Generator: v.tgt.Generator,
	})
	if res.Verdict != mc.Verified || res.States != v.sz.states || res.Transitions != v.sz.transitions {
		return 0, false, wrongf("verify-mc run %d: %s, want verified with %d states and %d transitions",
			req, res, v.sz.states, v.sz.transitions)
	}
	return float64(res.States), false, nil
}

// bfs explores the product breadth-first on one goroutine, deduplicating
// on Product.FP exactly as mc's fingerprinted visited set does, and checks
// its counts against the pinned ones. Traced, it records a span per
// expansion with the finish check, Transitions and every Product.Step as
// children, and on every probeEvery-th successor re-times the clone, key
// and fingerprint calls Step makes internally.
func (v *verifyInst) bfs(tr *tracer) (states, transitions int, err error) {
	p := v.tgt.Protocol
	sink := func(descriptor.Symbol) error { return nil }
	root := mc.NewProduct(p, v.po)
	seen := map[uint64]struct{}{root.FP: {}}
	queue := []*mc.Product{root}
	pairs := 0
	for i := 0; i < len(queue); i++ {
		e := queue[i]
		queue[i] = nil
		req := int64(i)
		sp := tr.begin("mc.expand", -1, req)
		var ferr error
		tr.call("mc.Product.FinishCheck", sp, req, func() { ferr = e.FinishCheck() })
		if ferr != nil {
			return 0, 0, wrongf("verify-mc: state %d fails its finish check: %v", i, ferr)
		}
		var trs []protocol.Transition
		tr.call("protocol.Transitions", sp, req, func() { trs = p.Transitions(e.PState) })
		transitions += len(trs)
		for idx, t := range trs {
			id := tr.begin("mc.Product.Step", sp, req)
			ne, err := e.Step(t, idx)
			d := float64(tr.end(id))
			if err != nil {
				return 0, 0, wrongf("verify-mc: state %d transition %d rejected: %v", i, idx, err)
			}
			v.stepNs += d
			if pairs++; tr != nil && pairs%probeEvery == 0 {
				tr.call("checker.Clone", sp, req, func() { sinkChecker = e.Chk.Clone() })
				tr.call("observer.Clone", sp, req, func() { _ = e.Obs.Clone(sink) })
				tr.call("mc.key", sp, req, func() {
					rn := ne.Obs.CanonicalRename()
					key := append([]byte(ne.PState.Key()), ne.Obs.CanonicalKey(rn)...)
					sinkBytes = append(key, ne.Chk.StateKeyRenamed(rn)...)
				})
				tr.call("mc.Fingerprint", sp, req, func() { sinkFP = mc.Fingerprint(ne.Key) })
			}
			if _, dup := seen[ne.FP]; dup {
				v.wastedNs += d
				continue
			}
			seen[ne.FP] = struct{}{}
			queue = append(queue, ne)
		}
		tr.end(sp)
	}
	states = len(seen)
	if states != v.sz.states || transitions != v.sz.transitions {
		return 0, 0, wrongf("verify-mc: serial search found %d states and %d transitions, want %d and %d",
			states, transitions, v.sz.states, v.sz.transitions)
	}
	v.bfsStates += states
	v.bfsTransitions += transitions
	return states, transitions, nil
}

func (v *verifyInst) layers(tr *traceRun) (map[string]float64, error) {
	sp := tr.traced.spans
	m := map[string]float64{
		"mc.product_step_us":      sp.perCall("mc.Product.Step") / 1e3,
		"mc.finish_check_us":      sp.perCall("mc.Product.FinishCheck") / 1e3,
		"protocol.transitions_us": sp.perCall("protocol.Transitions") / 1e3,
		"checker.clone_us":        sp.perCall("checker.Clone") / 1e3,
		"observer.clone_us":       sp.perCall("observer.Clone") / 1e3,
		"mc.key_us":               sp.perCall("mc.key") / 1e3,
		"mc.fingerprint_ns":       sp.perCall("mc.Fingerprint"),
		"mc.new_state_ratio":      ratio(float64(v.bfsStates), float64(v.bfsTransitions)),
		"mc.wasted_step_share":    ratio(v.wastedNs, v.stepNs),
		"mc.allocs_per_state":     ratio(float64(tr.untraced.mallocs), tr.untraced.units),
		"mc.bytes_per_state":      ratio(float64(tr.untraced.bytes), tr.untraced.units),
	}
	// The traced search is serial, so compare it with the same search
	// untraced rather than with Verify's parallel workers.
	t0 := time.Now()
	if _, _, err := v.bfs(nil); err != nil {
		return nil, err
	}
	untraced := time.Since(t0).Seconds() * 1e3
	m["bench.trace_overhead"] = ratio(median(tr.traced.latencies()), untraced) - 1
	return m, nil
}

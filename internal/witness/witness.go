// Package witness turns checker rejections into structured counterexamples:
// a rejected descriptor stream is shrunk to a locally-minimal rejecting core
// (ddmin), cross-validated against the exact Gibbons–Korach serial-
// reordering search so the result is certified non-SC rather than merely
// checker-rejected, and rendered as a human-readable happens-before-loop
// narrative naming concrete memory operations and the violated constraint
// of Section 3.1 (or the acyclicity requirement of Lemma 3.3).
//
// The package sits above the whole pipeline: FromStream explains a raw
// k-graph descriptor stream (sccheck), FromRun replays a concrete protocol
// run through a witness-enabled observer/checker pair (scverify
// counterexamples, sctest campaign failures), and Hunt scans random runs
// for the first rejection (examples/bughunt).
package witness

import (
	"errors"
	"fmt"
	"strings"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/spectrum"
	"scverify/internal/trace"
)

// DefaultExactLimit is the largest trace the certification search examines
// unless Options overrides it; beyond this the exponential Gibbons–Korach
// search is skipped (matching sctest's default).
const DefaultExactLimit = 14

// Options tunes witness construction.
type Options struct {
	// Minimize shrinks the rejecting stream to a 1-minimal rejecting core
	// before rendering.
	Minimize bool
	// ExactLimit bounds the trace length for the exact certification
	// search: 0 means DefaultExactLimit, negative disables certification.
	ExactLimit int
	// Params enables the checker's operation-label range check.
	Params trace.Params
	// CoreNonSC strengthens minimization when the original trace is too
	// large for the exact search: candidate cores small enough to check
	// must themselves be non-SC. Without it, ddmin over an unverifiable
	// original is free to collapse onto a spurious same-constraint
	// rejection whose trace is sequentially consistent — harmless for
	// witness narratives (the rendering flags it as annotation
	// inadequacy) but fatal for tier adjudication, which would report
	// TierSC for a genuinely non-SC stream. TierOptions sets it.
	CoreNonSC bool
}

// Explain is the option set the command-line tools use: minimize and
// certify at the default limit.
func Explain() Options { return Options{Minimize: true} }

// Witness is a structured counterexample: a (minimized) rejecting stream,
// its trace, the typed rejection, and the certification status of the
// trace against the exact serial-reordering search.
type Witness struct {
	// Protocol names the protocol the stream was observed from; empty for
	// raw streams.
	Protocol string
	// K is the bandwidth bound the stream was checked under.
	K int
	// Reject is the checker's structured rejection of Stream.
	Reject *checker.RejectError
	// Stream is the rejecting descriptor stream (minimized when
	// Options.Minimize was set).
	Stream descriptor.Stream
	// Trace lists the operation labels of Stream's node symbols in order.
	Trace trace.Trace
	// Run is the rejecting protocol run, when the witness came from one.
	Run *protocol.Run
	// Seed is the random seed that produced Run, when found by Hunt.
	Seed int64

	// OrigSymbols and OrigOps record the pre-minimization sizes.
	OrigSymbols int
	OrigOps     int
	// Minimized reports whether the ddmin reducer ran.
	Minimized bool

	// Labeler, when non-nil, renders trace position i (holding op) in the
	// caller's vocabulary; Render appends its output to the trace listing
	// and happens-before loop lines. internal/history uses it to describe
	// lowered operations as history events.
	Labeler func(i int, op trace.Op) string

	// CertChecked reports whether the exact search examined Trace;
	// Certified reports it confirmed the trace non-SC. A checked but
	// uncertified witness means the trace itself IS sequentially
	// consistent: the rejection reflects annotation inadequacy (wrong
	// ST-order generator for the protocol), not an SC violation — the
	// distinction Section 5 draws for lazy caching.
	CertChecked bool
	Certified   bool

	// Spectrum, when non-nil, is the tiered adjudication of Trace against
	// the weaker-model ladder (set by Adjudicate). Render appends its
	// narrative.
	Spectrum *spectrum.Result
}

// dense returns tr, or, when some processor or block ID lies outside
// 0..len(tr), a copy with every nonzero processor and block ID renumbered
// 1, 2, ... in order of first appearance; procs then lists the original
// processor of each new number.
// The exact search and the spectrum size their per-processor and per-block
// state by the largest ID, and labels may carry any ID whatever the
// session's parameters claim, so a few bytes could otherwise demand
// gigabytes. Neither answer depends on the names (ID 0, which neither
// schedules, keeps its name), so the copy is searched in tr's place and
// allocation stays linear in the trace.
func dense(tr trace.Trace) (out trace.Trace, procs []trace.ProcID) {
	n := len(tr)
	inRange := true
	for _, op := range tr {
		if op.Proc < 0 || int(op.Proc) > n || op.Block < 0 || int(op.Block) > n {
			inRange = false
			break
		}
	}
	if inRange {
		return tr, nil
	}
	pid := map[trace.ProcID]trace.ProcID{0: 0}
	bid := map[trace.BlockID]trace.BlockID{0: 0}
	out = tr.Clone()
	for i := range out {
		op := &out[i]
		if _, seen := pid[op.Proc]; !seen {
			procs = append(procs, op.Proc)
			pid[op.Proc] = trace.ProcID(len(procs))
		}
		if _, seen := bid[op.Block]; !seen {
			bid[op.Block] = trace.BlockID(len(bid))
		}
		op.Proc, op.Block = pid[op.Proc], bid[op.Block]
	}
	return out, procs
}

// isSC runs the exact serial-reordering search over dense(tr).
func isSC(tr trace.Trace) bool {
	d, _ := dense(tr)
	return trace.HasSerialReordering(d)
}

// Adjudicate runs the witness core through the weaker-model ladder of
// internal/spectrum, stores the result on the witness, and returns it.
// limit bounds the core size adjudicated (0 means spectrum.DefaultLimit,
// which equals DefaultExactLimit — every default-minimized core that the
// certification search examined is also tiered).
func (w *Witness) Adjudicate(limit int) spectrum.Result {
	t, procs := dense(w.Trace)
	res := spectrum.Adjudicate(t, spectrum.Options{Limit: limit})
	if procs != nil && res.FailProc > 0 {
		res.FailProc = procs[res.FailProc-1]
	}
	w.Spectrum = &res
	return res
}

// TierOptions is the canonical option set for tier adjudication: minimize
// to the 1-minimal core and certify at the default limit, with the given
// label ranges. Server-side and client-side tiering MUST build their
// witnesses with identical options over an identical stream prefix, so
// the tier a server reports always equals the tier the client would
// compute locally — the tier-level analogue of the never-wrong-verdict
// invariant.
func TierOptions(params trace.Params) Options {
	return Options{Minimize: true, Params: params, CoreNonSC: true}
}

// TierWitness builds the witness used for tier adjudication of a rejected
// stream: the stream is truncated just past the rejecting symbol (the
// suffix never reached a checker, so including it would let two sides
// minimize different streams), then minimized under TierOptions. Returns
// nil if the stream is in fact accepted.
func TierWitness(s descriptor.Stream, k int, params trace.Params) *Witness {
	re := runStream(s, k, params)
	if re == nil {
		return nil
	}
	if re.SymbolIndex >= 0 && re.SymbolIndex+1 < len(s) {
		s = s[:re.SymbolIndex+1]
	}
	return FromStream(s, k, TierOptions(params))
}

// FromStream builds a witness for a descriptor stream, or nil if the
// checker accepts it.
func FromStream(s descriptor.Stream, k int, opts Options) *Witness {
	re := runStream(s, k, opts.Params)
	if re == nil {
		return nil
	}
	origTrace := s.Trace()
	w := &Witness{
		K:           k,
		OrigSymbols: len(s),
		OrigOps:     len(origTrace),
	}
	limit := opts.ExactLimit
	if limit == 0 {
		limit = DefaultExactLimit
	}
	// When the original trace is exactly known to be non-SC, minimization
	// preserves that: the ddmin predicate demands every intermediate
	// candidate both reject and stay non-SC, so the core is certified by
	// construction. Otherwise minimize on rejection alone and certify (or
	// refute) the result post hoc.
	certify := limit > 0 && len(origTrace) <= limit && !isSC(origTrace)
	// CoreNonSC only has work to do when the original trace could not be
	// checked: candidates the exact search CAN check must stay non-SC.
	// (When the original fits the limit, certify already enforces this —
	// or the original is itself SC and there is nothing to preserve.)
	wantNonSC := opts.CoreNonSC && limit > 0 && len(origTrace) > limit
	min := s
	if opts.Minimize {
		// The reduction preserves the failure signature: a candidate counts
		// only if it rejects for the SAME constraint as the original (so a
		// cycle witness stays a cycle rather than degenerating into, say, a
		// bare load with no inheritance edge).
		pred := func(cand descriptor.Stream) bool {
			cre := runStream(cand, k, opts.Params)
			if cre == nil || cre.Constraint != re.Constraint {
				return false
			}
			if wantNonSC {
				if ct := cand.Trace(); len(ct) <= limit && isSC(ct) {
					return false
				}
			}
			return !certify || !isSC(cand.Trace())
		}
		min = ddmin(s, pred)
		re = runStream(min, k, opts.Params)
		w.Minimized = true
	}
	w.Stream = min
	w.Trace = min.Trace()
	w.Reject = re
	switch {
	case certify:
		w.CertChecked, w.Certified = true, true
	case limit > 0 && len(w.Trace) <= limit:
		w.CertChecked = true
		w.Certified = !isSC(w.Trace)
	}
	return w
}

// Record replays a run through a fresh observer, collecting the emitted
// descriptor stream and the bandwidth bound it needs.
func Record(run *protocol.Run, tgt registry.Target) (descriptor.Stream, int, error) {
	var stream descriptor.Stream
	collect := func(sym descriptor.Symbol) error {
		stream = append(stream, sym)
		return nil
	}
	obs := observer.New(run.Protocol, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize}, collect)
	for i, step := range run.Steps {
		if err := obs.Step(step.Transition); err != nil {
			return nil, 0, fmt.Errorf("witness: observe step %d: %w", i, err)
		}
	}
	if err := obs.Finish(); err != nil {
		return nil, 0, fmt.Errorf("witness: observe finish: %w", err)
	}
	return stream, tgt.K(), nil
}

// FromRun observes a concrete protocol run and builds the witness for its
// descriptor stream; (nil, nil) means the run is accepted. This is how
// model-checker counterexamples get their witnesses: mc explores with
// witness mode off (it clones the checker at every branch), and the
// counterexample run is replayed through this witness-enabled pipeline.
func FromRun(run *protocol.Run, tgt registry.Target, opts Options) (*Witness, error) {
	stream, k, err := Record(run, tgt)
	if err != nil {
		return nil, err
	}
	if opts.Params.Procs == 0 {
		opts.Params = run.Protocol.Params()
	}
	w := FromStream(stream, k, opts)
	if w != nil {
		w.Protocol = run.Protocol.Name()
		w.Run = run
	}
	return w, nil
}

// Hunt scans up to runs random executions of the target (seeds seed,
// seed+1, ...) for one the checker rejects, returning its witness;
// (nil, nil) means every run in the budget was accepted. Rejections whose
// trace the exact search certifies non-SC are preferred over annotation-
// inadequacy rejections: the scan returns the first certified witness, or
// the first rejection of any kind if no run in the budget certifies.
// Minimization (when requested) runs only on the chosen run, not during
// the scan.
func Hunt(tgt registry.Target, runs, steps int, seed int64, opts Options) (*Witness, error) {
	scan := opts
	scan.Minimize = false
	var fallback *protocol.Run
	var fallbackSeed int64
	finish := func(run *protocol.Run, s int64) (*Witness, error) {
		w, err := FromRun(run, tgt, opts)
		if err == nil && w != nil {
			w.Seed = s
		}
		return w, err
	}
	for i := 0; i < runs; i++ {
		run := protocol.RandomRun(tgt.Protocol, steps, seed+int64(i))
		w, err := FromRun(run, tgt, scan)
		if err != nil {
			return nil, err
		}
		if w == nil {
			continue
		}
		if w.Certified {
			return finish(run, seed+int64(i))
		}
		if fallback == nil {
			fallback, fallbackSeed = run, seed+int64(i)
		}
	}
	if fallback == nil {
		return nil, nil
	}
	return finish(fallback, fallbackSeed)
}

// runStream checks the stream with a fresh witness-enabled checker,
// returning the structured rejection or nil on acceptance.
func runStream(s descriptor.Stream, k int, params trace.Params) *checker.RejectError {
	c := checker.New(k).EnableWitness()
	if params.Procs > 0 {
		c.SetParams(params)
	}
	var err error
	for _, sym := range s {
		if err = c.Step(sym); err != nil {
			break
		}
	}
	if err == nil {
		err = c.Finish()
	}
	if err == nil {
		return nil
	}
	var re *checker.RejectError
	if errors.As(err, &re) {
		return re
	}
	// Defensive: the checker only ever rejects with *RejectError.
	return &checker.RejectError{
		SymbolIndex: -1,
		Msg:         strings.TrimPrefix(err.Error(), "checker: "),
	}
}

package gammalint

import (
	"errors"
	"fmt"

	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
)

// lintBandwidth replays pseudo-random runs of the protocol through the
// witness observer and the descriptor ID tracker, confirming the declared
// node-bandwidth bound k: the observer's ID pool (k IDs plus the reserved
// release ID) must never exhaust, and the tracker must never hold more
// than k simultaneously live nodes. Exceeding either means runs of the
// protocol produce constraint graphs outside the k-graph class the
// downstream checker is built for (Section 3.2).
func lintBandwidth(p protocol.Protocol, opts Options, rep *Report) {
	name := p.Name()
	// Across clean runs, remember the declared bound and the highest peak
	// of simultaneously live nodes for the opt-in GL012 over-declaration
	// warning. Dirty runs invalidate the sample: a rejected run's peak
	// says nothing about the protocol's real needs.
	declaredK := 0
	maxPeak := 0
	cleanRuns := 0
	for r := 0; r < opts.BandwidthRuns && !rep.full(opts); r++ {
		run := protocol.RandomRun(p, opts.BandwidthSteps, opts.Seed+int64(r))

		tracker := descriptor.NewTracker()
		live := 0
		peak := 0
		track := func(sym descriptor.Symbol) error {
			eff := tracker.Apply(sym)
			switch eff.Kind {
			case descriptor.EffectNode:
				live++
				if eff.Displaced >= 0 && eff.DisplacedEmptied {
					live--
				}
			case descriptor.EffectAddID:
				if eff.Displaced >= 0 && eff.DisplacedEmptied {
					live--
				}
			}
			if live > peak {
				peak = live
			}
			return nil
		}

		obs := observer.New(p, opts.Generator, observer.Config{PoolSize: opts.PoolSize}, track)
		k := obs.K()
		failed := false
		for i, step := range run.Steps {
			if err := obs.Step(step.Transition); err != nil {
				path := runPrefixIndices(p, run, i+1)
				if errors.Is(err, observer.ErrBandwidth) {
					rep.add(opts, Finding{Rule: RuleBandwidth, Severity: Error, Protocol: name, Path: path,
						Msg: fmt.Sprintf("declared bandwidth bound k=%d exceeded after %d steps: %v", k, i+1, err)})
				} else {
					rep.add(opts, Finding{Rule: RuleObserver, Severity: Error, Protocol: name, Path: path,
						Msg: fmt.Sprintf("observer rejected run after %d steps: %v", i+1, err)})
				}
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		if err := obs.Finish(); err != nil {
			rule, msg := RuleObserver, fmt.Sprintf("observer rejected run at finish: %v", err)
			if errors.Is(err, observer.ErrBandwidth) {
				rule, msg = RuleBandwidth, fmt.Sprintf("declared bandwidth bound k=%d exceeded at finish: %v", k, err)
			}
			rep.add(opts, Finding{Rule: rule, Severity: Error, Protocol: name,
				Path: runPrefixIndices(p, run, len(run.Steps)), Msg: msg})
			continue
		}
		if peak > k {
			rep.add(opts, Finding{Rule: RuleBandwidth, Severity: Error, Protocol: name,
				Path: runPrefixIndices(p, run, len(run.Steps)),
				Msg:  fmt.Sprintf("descriptor tracker held %d live nodes, above the declared bound k=%d", peak, k)})
			continue
		}
		declaredK = k
		cleanRuns++
		if peak > maxPeak {
			maxPeak = peak
		}
	}
	if opts.CheckOverK && cleanRuns == opts.BandwidthRuns && cleanRuns > 0 && maxPeak < declaredK {
		rep.add(opts, Finding{Rule: RuleOverK, Severity: Warning, Protocol: name,
			Msg: fmt.Sprintf("declared bandwidth bound k=%d, but %d clean runs never held more than %d live nodes; k may be over-declared", declaredK, cleanRuns, maxPeak)})
	}
}

// runPrefixIndices recovers the transition-index path of a run prefix so
// bandwidth findings are replayable like exploration findings.
func runPrefixIndices(p protocol.Protocol, run *protocol.Run, steps int) []int {
	runner := protocol.NewRunner(p)
	path := make([]int, 0, steps)
	for _, step := range run.Steps[:steps] {
		want := transitionSignature(step.Transition)
		idx := -1
		for i, tr := range runner.Enabled() {
			if transitionSignature(tr) == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil // enumeration unstable; GL006 reports that separately
		}
		path = append(path, idx)
		if err := runner.TakeIndex(idx); err != nil {
			return nil
		}
	}
	return path
}

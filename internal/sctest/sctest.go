// Package sctest implements the per-run testing scenario of Section 5 of
// Condon & Hu: instead of model checking the full product, the observer
// and checker are simulated alongside concrete protocol runs, flagging any
// run whose constraint graph is cyclic or ill-annotated. Runs can be
// cross-checked against the exact (exponential) serial-reordering search
// of Gibbons & Korach to classify rejections: a rejected run whose trace
// is genuinely non-SC is a protocol violation; a rejected run whose trace
// IS SC shows the chosen annotation (tracking labels / ST-order
// generator) is inadequate for the protocol, not that the protocol is
// broken — exactly the distinction the paper draws for lazy caching under
// the trivial generator.
package sctest

import (
	"fmt"
	"sync"

	"scverify/internal/checker"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/spectrum"
	"scverify/internal/trace"
)

// Config tunes a testing campaign.
type Config struct {
	Runs  int   // number of random runs
	Steps int   // maximum steps per run
	Seed  int64 // base seed; run i uses Seed+i
	// Exact enables the Gibbons–Korach cross-check on traces of length at
	// most ExactLimit.
	Exact      bool
	ExactLimit int // default 14
	// Workers runs the campaign on a worker pool; 0 or 1 is sequential.
	// Results are deterministic regardless of worker count: per-run
	// verdicts depend only on the run's seed, and aggregation is ordered.
	Workers int
	// Check overrides per-run adjudication; nil means the in-process
	// CheckRun. An Opener's CheckRun ships each run's descriptor stream
	// to an scserve service or scgrid fabric instead. It must be safe for
	// concurrent use when Workers > 1.
	Check func(*protocol.Run, registry.Target) error
	// Tier adjudicates every rejection's witness core against the
	// weaker-model ladder: the verdict's wire tier when the checker is a
	// tiered service, the local TierWitness adjudication otherwise, and
	// both cross-checked against each other whenever both resolve.
	Tier bool
}

// Result summarizes a campaign.
type Result struct {
	Runs     int
	Accepted int
	Rejected int
	// NonSCConfirmed counts rejected runs whose traces the exact search
	// confirmed non-SC (true violations).
	NonSCConfirmed int
	// RejectedButSC counts rejected runs whose traces are SC — annotation
	// inadequacy, not protocol violation.
	RejectedButSC int
	// CrossChecked counts runs the exact search examined.
	CrossChecked int
	// SoundnessBreaks counts accepted runs whose traces the exact search
	// found non-SC. Any non-zero value is a bug in the method.
	SoundnessBreaks int

	// Tiers histograms rejections by adjudicated consistency tier
	// (indexed by spectrum.Tier) when Config.Tier is set; TiersUnchecked
	// counts rejections whose core no side could adjudicate, and
	// WrongTiers counts service/local tier disagreements — like
	// SoundnessBreaks, any non-zero value is a bug.
	Tiers          [spectrum.NumTiers]int
	TiersUnchecked int
	WrongTiers     int

	// FirstRejected retains the first rejected run and its cause.
	FirstRejected *protocol.Run
	FirstCause    error
}

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("%d runs: %d accepted, %d rejected", r.Runs, r.Accepted, r.Rejected)
	if r.CrossChecked > 0 {
		s += fmt.Sprintf(" (%d cross-checked: %d confirmed non-SC, %d annotation-inadequate, %d soundness breaks)",
			r.CrossChecked, r.NonSCConfirmed, r.RejectedButSC, r.SoundnessBreaks)
	}
	if tl := tierLine(r.Tiers, r.TiersUnchecked, r.WrongTiers); tl != "" {
		s += "; " + tl
	}
	return s
}

// CheckRun observes one recorded run, pipes the descriptor stream straight
// into a fresh checker, and returns nil if the run is accepted.
func CheckRun(run *protocol.Run, tgt registry.Target) error {
	chk := checker.New(tgt.K())
	chk.SetParams(run.Protocol.Params())
	obs := observer.New(run.Protocol, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize}, chk.Step)
	for _, step := range run.Steps {
		if err := obs.Step(step.Transition); err != nil {
			return err
		}
	}
	if err := obs.Finish(); err != nil {
		return err
	}
	return chk.Finish()
}

// verdict is one run's classification, produced independently per seed.
type verdict struct {
	run     *protocol.Run
	err     error
	checked bool
	isSC    bool
	tv      tierVerdict
}

func classify(tgt registry.Target, cfg Config, i int) verdict {
	run := protocol.RandomRun(tgt.Protocol, cfg.Steps, cfg.Seed+int64(i))
	check := cfg.Check
	if check == nil {
		check = CheckRun
	}
	v := verdict{run: run, err: check(run, tgt)}
	if cfg.Exact && len(run.Trace) <= cfg.ExactLimit {
		v.checked = true
		v.isSC = trace.HasSerialReordering(run.Trace)
	}
	if cfg.Tier && v.err != nil {
		v.tv = adjudicateTier(v.err, func() (spectrum.Result, bool) {
			return LocalTier(run, tgt)
		})
	}
	return v
}

// Campaign runs the testing scenario against a target, fanning the runs
// across a worker pool when Config.Workers asks for one.
func Campaign(tgt registry.Target, cfg Config) Result {
	if cfg.ExactLimit == 0 {
		cfg.ExactLimit = 14
	}
	res := Result{Runs: cfg.Runs}

	verdicts := make([]verdict, cfg.Runs)
	if cfg.Workers > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					verdicts[i] = classify(tgt, cfg, i)
				}
			}()
		}
		for i := 0; i < cfg.Runs; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	} else {
		for i := 0; i < cfg.Runs; i++ {
			verdicts[i] = classify(tgt, cfg, i)
		}
	}

	// Ordered aggregation keeps FirstRejected deterministic.
	for _, v := range verdicts {
		if v.checked {
			res.CrossChecked++
		}
		if v.err == nil {
			res.Accepted++
			if v.checked && !v.isSC {
				res.SoundnessBreaks++
			}
			continue
		}
		res.Rejected++
		if res.FirstRejected == nil {
			res.FirstRejected = v.run
			res.FirstCause = v.err
		}
		if cfg.Tier {
			switch {
			case v.tv.wrong:
				res.WrongTiers++
			case v.tv.tierOK && int(v.tv.tier) < len(res.Tiers):
				res.Tiers[v.tv.tier]++
			default:
				res.TiersUnchecked++
			}
		}
		if v.checked {
			if v.isSC {
				res.RejectedButSC++
			} else {
				res.NonSCConfirmed++
			}
		}
	}
	return res
}

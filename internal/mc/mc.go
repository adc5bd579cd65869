// Package mc is an explicit-state model checker for the verification
// method of Condon & Hu: it exhaustively explores the finite product of a
// protocol with its witness observer and the SC checker. Acceptance of
// every reachable product state (including the end-of-run Finish check,
// since every run prefix is itself a run) establishes that every trace of
// the protocol has an acyclic constraint graph — i.e. that the protocol is
// sequentially consistent (Theorem 3.1). A rejecting state yields a
// concrete counterexample run.
//
// Exploration runs on a shared-queue worker pool (Explorer) that also
// serves as one shard of internal/scmc's distributed fabric; Verify is
// the single-shard configuration. States are deduplicated in a 64-bit
// fingerprinted visited set by default, with an exact-key fallback and a
// collision-audit mode (Options.ExactKeys, Options.AuditCollisions).
package mc

import (
	"errors"
	"fmt"
	"time"

	"scverify/internal/observer"
	"scverify/internal/protocol"
)

// Verdict is the outcome of a verification attempt.
type Verdict int

const (
	// Verified means every reachable product state accepts: the protocol is
	// sequentially consistent (for the fixed parameters).
	Verified Verdict = iota
	// Violated means some run drives the observer or checker into
	// rejection; the result carries the counterexample.
	Violated
	// Incomplete means exploration hit a configured bound before finishing.
	Incomplete
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Verified:
		return "verified"
	case Violated:
		return "violated"
	case Incomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Options tunes exploration.
type Options struct {
	// Workers is the number of expansion goroutines; 0 means GOMAXPROCS.
	Workers int
	// MaxStates caps the number of distinct product states; 0 means 4M.
	MaxStates int
	// MaxDepth caps exploration depth (run length); 0 means unbounded.
	MaxDepth int
	// PoolSize overrides the observer ID pool (0 = Section 4.4 default).
	PoolSize int
	// Generator is the ST-order generator; the zero value is real-time.
	Generator observer.Generator
	// Progress, if non-nil, is called periodically with the deepest state
	// seen, the visited-set size, and the ready-queue length.
	Progress func(depth, states, frontier int)
	// TrackObserverStates additionally counts distinct observer-component
	// states (canonical keys), for the Section 4.4 size-bound experiment.
	TrackObserverStates bool
	// ExactKeys switches the visited set from 64-bit fingerprints to full
	// canonical keys — more memory, no aliasing risk.
	ExactKeys bool
	// AuditCollisions keeps exact keys alongside the fingerprint table to
	// count genuine fingerprint collisions (Result.Collisions).
	AuditCollisions bool
}

// Result reports the outcome of Verify.
type Result struct {
	Protocol       string
	Verdict        Verdict
	Err            error // rejection cause for Violated
	Counterexample []int // transition indices from the initial state
	States         int   // distinct product states
	Transitions    int   // product transitions expanded
	Depth          int   // max exploration depth reached
	PeakIDs        int   // high-water mark of observer IDs across all states
	// ObserverStates counts distinct observer-component states when
	// Options.TrackObserverStates is set; 0 otherwise.
	ObserverStates int
	// Collisions counts fingerprint collisions detected when
	// Options.AuditCollisions is set; 0 otherwise.
	Collisions int64
	Elapsed    time.Duration
}

// String renders a one-line summary.
func (r Result) String() string {
	s := fmt.Sprintf("%s: %s — %d states, %d transitions, depth %d, peak IDs %d, %v",
		r.Protocol, r.Verdict, r.States, r.Transitions, r.Depth, r.PeakIDs, r.Elapsed.Round(time.Millisecond))
	if r.Err != nil {
		s += fmt.Sprintf(" (%v)", r.Err)
	}
	return s
}

// Verify exhaustively explores the product state space of the protocol,
// its observer, and the checker on a single-shard Explorer.
func Verify(p protocol.Protocol, opts Options) Result {
	start := time.Now()
	res := Result{Protocol: p.Name()}

	x, err := NewExplorer(p, ProductOptions{PoolSize: opts.PoolSize, Generator: opts.Generator}, ExplorerConfig{
		Workers:             opts.Workers,
		MaxStates:           opts.MaxStates,
		MaxDepth:            opts.MaxDepth,
		Exact:               opts.ExactKeys,
		Audit:               opts.AuditCollisions,
		TrackObserverStates: opts.TrackObserverStates,
	})
	if err != nil {
		res.Verdict = Incomplete
		res.Err = err
		res.Elapsed = time.Since(start)
		return res
	}

	var progressDone chan struct{}
	if opts.Progress != nil {
		progressDone = make(chan struct{})
		go func() {
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-tick.C:
					r := x.Report()
					opts.Progress(r.Depth, int(r.States), int(r.QueueLen))
				}
			}
		}()
	}

	x.Seed()
	x.Wait()
	x.Stop()
	if progressDone != nil {
		close(progressDone)
	}

	r := x.Report()
	res.States = int(r.States)
	res.Transitions = int(r.Transitions)
	res.Depth = r.Depth
	res.PeakIDs = r.PeakIDs
	res.Collisions = r.Collisions
	res.ObserverStates = x.ObserverStates()

	switch {
	case x.Violation() != nil:
		v := x.Violation()
		res.Verdict = Violated
		res.Err = v.Err
		res.Counterexample = v.Path
	case x.Failed() != nil:
		res.Verdict = Incomplete
		res.Err = x.Failed()
	case r.Capped:
		res.Verdict = Incomplete
		res.Err = errors.New("mc: state cap reached")
	case r.DepthCapped:
		res.Verdict = Incomplete
	default:
		res.Verdict = Verified
	}
	res.Elapsed = time.Since(start)
	return res
}

// Replay re-executes a counterexample path, returning the offending run.
func Replay(p protocol.Protocol, path []int) (*protocol.Run, error) {
	return protocol.ReplayIndices(p, path)
}

// Package gammalint statically verifies that a protocol is a well-formed
// member of the class Γ the observer construction of Condon & Hu is sound
// for. The soundness argument of Sections 2.1–4.1 rests on preconditions
// the rest of the repository assumes but cannot check at use time: every
// memory transition must carry a tracking label in [1,L]; copy labels must
// reference valid locations; an ST transition must actually update the
// location its label names; transition enumeration must be deterministic;
// State.Key must be injective over reachable states; and runs must stay
// within the declared node-bandwidth bound k. A protocol violating any of
// these silently yields a wrong SC verdict — the observer emits a
// descriptor stream of the wrong constraint graph and the checker
// faithfully adjudicates the wrong graph.
//
// Lint performs a bounded exploration of the protocol's reachable state
// space, maintaining a shadow copy of every storage location's contents as
// implied by the tracking labels alone (the same induction that defines
// ST-index in Section 4.1, carried out on values instead of store
// indices). Divergence between a load's value and the shadow contents of
// its labeled location is exactly a tracking-label violation. A second,
// dynamic pass replays pseudo-random runs through the witness observer and
// the descriptor ID tracker to confirm the declared bandwidth bound.
package gammalint

import (
	"encoding/json"
	"fmt"
	"time"

	"scverify/internal/observer"
	"scverify/internal/protocol"
)

// Rule identifiers, stable across releases; tests and CI match on these.
const (
	// RuleOpParams: a memory operation lies outside the declared Params.
	RuleOpParams = "GL001"
	// RuleMemLocRange: a memory transition's tracking label is outside [1,L].
	RuleMemLocRange = "GL002"
	// RuleCopyRange: a copy label references a location outside the valid
	// range (Dst in [1,L], Src in [0,L]).
	RuleCopyRange = "GL003"
	// RuleLoadValue: a load's value disagrees with the tracked contents of
	// its labeled location — a wrong tracking function f, or an ST
	// transition that did not update the location its label names.
	RuleLoadValue = "GL004"
	// RuleLoadInvalid: a load is labeled with a location whose tracked
	// contents are invalid (last written by a Src-0 copy and never refilled).
	RuleLoadInvalid = "GL005"
	// RuleNondet: re-enumerating the transitions of a state produced a
	// different list — enumeration is nondeterministic (typically map
	// iteration), which breaks run replay and model-checking stability.
	RuleNondet = "GL006"
	// RuleKeyCollision: two behaviorally distinct states share a Key —
	// State.Key is not injective over reachable states, so the model
	// checker would merge states that must stay separate.
	RuleKeyCollision = "GL007"
	// RuleBandwidth: a run exceeded the declared node-bandwidth bound k
	// (the observer's ID pool was exhausted, or the descriptor tracker held
	// more than k simultaneously live nodes).
	RuleBandwidth = "GL008"
	// RuleDeadState: a reachable state has no enabled transitions. Scripted
	// single-run protocols end in such a state by design, so this is a
	// warning, not an error.
	RuleDeadState = "GL009"
	// RuleUnreachable: a state declared via StateDeclarer was not reached
	// by an exhaustive exploration.
	RuleUnreachable = "GL010"
	// RuleObserver: the witness observer rejected a run of the protocol for
	// a reason other than bandwidth — the run left the class the observer
	// was generated for.
	RuleObserver = "GL011"
	// RuleOverK: the declared node-bandwidth bound k was never approached —
	// no bandwidth run held more than some peak < k live nodes. An
	// over-declared k is not unsound, but it inflates every downstream
	// cost that scales with k (observer ID pool, checker graph width), so
	// this is an opt-in warning (Options.CheckOverK); the sampled runs are
	// a lower bound on the true peak, not a proof of it.
	RuleOverK = "GL012"
)

// Severity ranks a finding.
type Severity uint8

const (
	// Warning findings flag smells that do not by themselves unsound the
	// verdict (dead states, unreachable declared states).
	Warning Severity = iota
	// Error findings violate a soundness precondition of the method.
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// MarshalJSON renders the severity as its name, so machine-readable
// reports say "warning"/"error" rather than a bare enum ordinal.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("unknown severity %q", name)
	}
	return nil
}

// StateDeclarer is optionally implemented by protocols that can enumerate
// states they expect to be reachable; Lint reports declared states the
// exhaustive exploration never visited.
type StateDeclarer interface {
	DeclaredStates() []protocol.State
}

// Finding is one rule violation, positioned by the path that exhibits it.
// The JSON field names are a stable machine interface (sccheck lint -json).
type Finding struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Protocol string   `json:"protocol"`
	// Path is the sequence of transition indices from the initial state
	// that reaches the offending state (replayable via
	// protocol.ReplayIndices); nil when no single path applies.
	Path []int `json:"path,omitempty"`
	// Msg describes the violation.
	Msg string `json:"msg"`
}

// String renders the finding in a grep-able single line.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s [%s] %s", f.Protocol, f.Severity, f.Rule, f.Msg)
	if f.Path != nil {
		s += fmt.Sprintf(" (path %v)", f.Path)
	}
	return s
}

// Options bound the exploration and configure the bandwidth pass.
type Options struct {
	// MaxStates caps the number of distinct (state, shadow) pairs explored;
	// 0 means 50000.
	MaxStates int
	// MaxDepth caps the BFS depth; 0 means unbounded (within MaxStates).
	MaxDepth int
	// MaxFindings stops collection after this many findings; 0 means 50.
	MaxFindings int
	// PoolSize declares the observer ID pool (k) for the bandwidth pass;
	// 0 selects the observer's Section 4.4 default for the protocol.
	PoolSize int
	// Generator is the ST-order generator for the bandwidth pass; the zero
	// value is the trivial real-time generator.
	Generator observer.Generator
	// BandwidthRuns is the number of pseudo-random runs replayed through
	// the observer; 0 means 20. Negative disables the pass.
	BandwidthRuns int
	// BandwidthSteps is the length of each bandwidth run; 0 means 60.
	BandwidthSteps int
	// Seed offsets the bandwidth pass's run seeds.
	Seed int64
	// CheckOverK enables the GL012 warning: after a fully clean bandwidth
	// pass, report when no run held more than peak < k live nodes — the
	// declared bound may be larger than the protocol needs. Opt-in
	// because the sampled runs only lower-bound the true peak.
	CheckOverK bool
}

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = 50000
	}
	if o.MaxFindings == 0 {
		o.MaxFindings = 50
	}
	if o.BandwidthRuns == 0 {
		o.BandwidthRuns = 20
	}
	if o.BandwidthSteps == 0 {
		o.BandwidthSteps = 60
	}
	return o
}

// Report is the outcome of linting one protocol. The JSON field names
// are a stable machine interface (sccheck lint -json); Elapsed marshals
// as nanoseconds.
type Report struct {
	Protocol string    `json:"protocol"`
	Findings []Finding `json:"findings"`
	// States is the number of distinct (state, shadow) pairs visited.
	States int `json:"states"`
	// Transitions is the number of protocol transitions examined.
	Transitions int `json:"transitions"`
	// Complete reports that the reachable state space was exhausted within
	// the configured bounds (unreachability findings are only sound then).
	Complete bool          `json:"complete"`
	Elapsed  time.Duration `json:"elapsed"`
}

// Errors counts error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return len(r.Findings) - r.Errors() }

// Clean reports that the protocol produced no findings at all.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %d findings (%d errors) — %d states, %d transitions, complete=%v, %v",
		r.Protocol, len(r.Findings), r.Errors(), r.States, r.Transitions, r.Complete,
		r.Elapsed.Round(time.Millisecond))
}

// Lint verifies Γ-membership and well-formedness of the protocol within
// the configured bounds and returns every violation found.
func Lint(p protocol.Protocol, opts Options) *Report {
	start := time.Now()
	opts = opts.withDefaults()
	rep := &Report{Protocol: p.Name()}

	lintStructure(p, opts, rep)
	if rep.full(opts) {
		rep.Elapsed = time.Since(start)
		return rep
	}
	if opts.BandwidthRuns > 0 {
		lintBandwidth(p, opts, rep)
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// add appends a finding unless the report is full.
func (r *Report) add(opts Options, f Finding) {
	if len(r.Findings) < opts.MaxFindings {
		r.Findings = append(r.Findings, f)
	}
}

func (r *Report) full(opts Options) bool { return len(r.Findings) >= opts.MaxFindings }

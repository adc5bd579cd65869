// Package conformance cross-validates every registered protocol against
// the method's global invariants: observer streams are well-formed
// k-graph descriptors within the ID pool; SC protocols are never rejected;
// accepted runs always have genuinely SC traces (checked by the exact
// search); cloned pipeline components are truly independent of their
// originals; and the model checker's results are stable across worker
// counts. It is the repository's method-level safety net — any new
// protocol added to the registry is automatically subjected to all of it.
package conformance

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/gammalint"
	"scverify/internal/mc"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/sctest"
	"scverify/internal/trace"
)

var conformanceParams = trace.Params{Procs: 2, Blocks: 2, Values: 2}

func allTargets(t testing.TB) map[string]registry.Target {
	t.Helper()
	out := make(map[string]registry.Target)
	for _, name := range registry.Names() {
		tgt, err := registry.Build(name, registry.Options{Params: conformanceParams, QueueCap: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tgt
	}
	return out
}

// TestRegistryGammaLintClean requires every registered protocol — the SC
// ones and the deliberately broken ones alike — to pass Γ-lint with zero
// findings. Coherence bugs break SC, not Γ-membership: their tracking
// labels still describe what the broken machine actually does, so a
// finding here means a protocol was added whose labels, keys, enumeration
// or bandwidth declaration the method's soundness argument does not cover.
func TestRegistryGammaLintClean(t *testing.T) {
	for name, tgt := range allTargets(t) {
		rep := gammalint.Lint(tgt.Protocol, gammalint.Options{
			MaxStates:     4000,
			PoolSize:      tgt.PoolSize,
			Generator:     tgt.Generator,
			BandwidthRuns: 5,
		})
		t.Log(rep)
		for _, f := range rep.Findings {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// observe runs one random run through a fresh observer, returning the
// stream even when the observer errors.
func observe(tgt registry.Target, steps int, seed int64) (descriptor.Stream, *observer.Observer, *protocol.Run, error) {
	run := protocol.RandomRun(tgt.Protocol, steps, seed)
	stream, obs, err := observer.ObserveRun(run, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize})
	return stream, obs, run, err
}

func TestStreamsAreWellFormedDescriptors(t *testing.T) {
	for name, tgt := range allTargets(t) {
		for seed := int64(0); seed < 10; seed++ {
			stream, obs, run, err := observe(tgt, 30, seed)
			if err != nil {
				t.Fatalf("%s seed %d: observer error: %v\nrun: %s", name, seed, err, run)
			}
			if err := stream.Validate(obs.K(), true); err != nil {
				t.Fatalf("%s seed %d: malformed stream: %v", name, seed, err)
			}
			if got := stream.MaxID(); got > obs.K()+1 {
				t.Fatalf("%s seed %d: ID %d beyond pool %d", name, seed, got, obs.K()+1)
			}
		}
	}
}

func TestStreamTraceMatchesRunTrace(t *testing.T) {
	for name, tgt := range allTargets(t) {
		stream, _, run, err := observe(tgt, 40, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := stream.Trace().String(), run.Trace.String(); got != want {
			t.Fatalf("%s: observer is not non-interfering:\n stream: %s\n run:    %s", name, got, want)
		}
	}
}

func TestSCProtocolsNeverRejected(t *testing.T) {
	for name, tgt := range allTargets(t) {
		if !tgt.ExpectSC {
			continue
		}
		res := sctest.Campaign(tgt, sctest.Config{Runs: 40, Steps: 30, Seed: 5, Exact: true})
		if res.Rejected != 0 {
			t.Errorf("%s: %d rejections, first: %v on %s", name, res.Rejected, res.FirstCause, res.FirstRejected)
		}
		if res.SoundnessBreaks != 0 {
			t.Errorf("%s: soundness break", name)
		}
	}
}

func TestAcceptedRunsHaveSCTraces(t *testing.T) {
	// Method soundness across ALL protocols, including broken ones: if the
	// checker accepts a run, its trace must have a serial reordering.
	for name, tgt := range allTargets(t) {
		res := sctest.Campaign(tgt, sctest.Config{Runs: 60, Steps: 14, Seed: 11, Exact: true})
		if res.SoundnessBreaks != 0 {
			t.Errorf("%s: %d accepted runs with non-SC traces", name, res.SoundnessBreaks)
		}
	}
}

func TestStreamsDecodeToConstraintGraphs(t *testing.T) {
	// For accepted runs, the decoded graph must satisfy the offline
	// reference checks too (streaming and offline verdicts agree).
	for name, tgt := range allTargets(t) {
		if !tgt.ExpectSC {
			continue
		}
		stream, obs, _, err := observe(tgt, 30, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checker.Check(stream, obs.K()); err != nil {
			t.Fatalf("%s: stream rejected: %v", name, err)
		}
		g, err := descriptor.Decode(stream).ToConstraintGraph()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := g.CheckConstraints(); err != nil {
			t.Fatalf("%s: offline constraints: %v", name, err)
		}
		if !g.IsAcyclic() {
			t.Fatalf("%s: offline graph cyclic", name)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	// Step a cloned pipeline aggressively; the original's state keys must
	// not move.
	tgt := allTargets(t)["msi"]
	chk := checker.New(tgt.K())
	obs := observer.New(tgt.Protocol, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize}, chk.Step)

	run := protocol.RandomRun(tgt.Protocol, 20, 13)
	half := len(run.Steps) / 2
	for _, step := range run.Steps[:half] {
		if err := obs.Step(step.Transition); err != nil {
			t.Fatal(err)
		}
	}
	obsKey := string(obs.StateKey())
	chkKey := string(chk.StateKey())

	cchk := chk.Clone()
	cobs := obs.Clone(cchk.Step)
	for _, step := range run.Steps[half:] {
		if err := cobs.Step(step.Transition); err != nil {
			t.Fatal(err)
		}
	}
	if err := cobs.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := cchk.Finish(); err != nil {
		t.Fatal(err)
	}
	if string(obs.StateKey()) != obsKey {
		t.Error("stepping the clone mutated the original observer")
	}
	if string(chk.StateKey()) != chkKey {
		t.Error("finishing the clone mutated the original checker")
	}
	// And the original still works.
	for _, step := range run.Steps[half:] {
		if err := obs.Step(step.Transition); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModelCheckerWorkerInvariance(t *testing.T) {
	tgt := allTargets(t)["writethrough"]
	small, err := registry.Build("writethrough", registry.Options{Params: trace.Params{Procs: 2, Blocks: 1, Values: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_ = tgt
	a := mc.Verify(small.Protocol, mc.Options{Workers: 1, MaxDepth: 7, Generator: small.Generator})
	b := mc.Verify(small.Protocol, mc.Options{Workers: 8, MaxDepth: 7, Generator: small.Generator})
	if a.States != b.States || a.Transitions != b.Transitions || a.Verdict != b.Verdict {
		t.Errorf("worker counts disagree: %s vs %s", a, b)
	}
}

func TestDeterministicStreams(t *testing.T) {
	// The observer is a deterministic automaton: identical runs produce
	// byte-identical streams.
	for name, tgt := range allTargets(t) {
		s1, _, _, err1 := observe(tgt, 25, 17)
		s2, _, _, err2 := observe(tgt, 25, 17)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: determinism break in errors: %v vs %v", name, err1, err2)
		}
		if string(descriptor.Marshal(s1)) != string(descriptor.Marshal(s2)) {
			t.Fatalf("%s: identical runs produced different streams", name)
		}
	}
}

func TestWireRoundTripAllProtocols(t *testing.T) {
	for name, tgt := range allTargets(t) {
		stream, _, _, err := observe(tgt, 30, 19)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := descriptor.Marshal(stream)
		back, err := descriptor.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if string(descriptor.Marshal(back)) != string(data) {
			t.Fatalf("%s: wire round trip not idempotent", name)
		}
	}
}

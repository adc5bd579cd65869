package mc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/trace"
)

// Each registry protocol the scratch path is checked on, at small params:
// real-time and queue-aware generators, and storebuffer for rejections.
var scratchTargets = []struct {
	name   string
	params trace.Params
}{
	{"serial", trace.Params{Procs: 2, Blocks: 1, Values: 2}},
	{"writethrough", trace.Params{Procs: 2, Blocks: 1, Values: 1}},
	{"msi", trace.Params{Procs: 2, Blocks: 1, Values: 1}},
	{"lazy", trace.Params{Procs: 2, Blocks: 1, Values: 1}},
	{"storebuffer", trace.Params{Procs: 2, Blocks: 2, Values: 1}},
}

// slowStates collects up to n product states breadth-first through the
// slow path (Product.Step), skipping rejected successors.
func slowStates(t *testing.T, p protocol.Protocol, po ProductOptions, n int) []*Product {
	t.Helper()
	root := NewProduct(p, po)
	seen := map[string]bool{root.Key: true}
	states := []*Product{root}
	for i := 0; i < len(states) && len(states) < n; i++ {
		for idx, tr := range p.Transitions(states[i].PState) {
			ne, err := states[i].Step(tr, idx)
			if err != nil || seen[ne.Key] {
				continue
			}
			seen[ne.Key] = true
			states = append(states, ne)
		}
	}
	return states
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestScratchStepMatchesProductStep is the differential check of the
// Explorer's fast path against its slow-path oracle: for random
// parent/transition pairs, stepping a dirty worker scratch must give the
// same key bytes, fingerprint and error text as Product.Step, the compact
// clone of the scratch must carry the same key, the scratch finish check
// must agree with FinishCheck, and the parent must be left untouched.
func TestScratchStepMatchesProductStep(t *testing.T) {
	for _, tc := range scratchTargets {
		t.Run(tc.name, func(t *testing.T) {
			tgt, err := registry.Build(tc.name, registry.Options{Params: tc.params})
			if err != nil {
				t.Fatal(err)
			}
			p := tgt.Protocol
			po := ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator}
			states := slowStates(t, p, po, 600)
			s := newScratch(p, po)
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			rejections, checked := 0, 0
			for n := 0; n < 1500; n++ {
				parent := states[rng.Intn(len(states))]
				trs := p.Transitions(parent.PState)
				if len(trs) == 0 {
					continue
				}
				// Dirty the scratch first with a deep state: the last states
				// of the breadth-first list are the largest.
				deep := states[len(states)-1-rng.Intn(len(states)/4+1)]
				if dtrs := p.Transitions(deep.PState); len(dtrs) > 0 {
					j := rng.Intn(len(dtrs))
					_ = s.step(deep, dtrs[j], j)
				}

				idx := rng.Intn(len(trs))
				want, werr := parent.Step(trs[idx], idx)
				gerr := s.step(parent, trs[idx], idx)
				if errText(gerr) != errText(werr) {
					t.Fatalf("pair %v+%d: scratch error %q, Product.Step error %q", parent.Path(), idx, errText(gerr), errText(werr))
				}
				if key, _ := parent.appendKey(nil, nil); string(key) != parent.Key {
					t.Fatalf("pair %v+%d: stepping the scratch changed the parent's key", parent.Path(), idx)
				}
				if werr != nil {
					rejections++
					continue
				}
				checked++
				if !bytes.Equal(s.key, []byte(want.Key)) || s.prod.FP != want.FP {
					t.Fatalf("pair %v+%d: scratch key/FP differ from Product.Step (%x vs %x)", parent.Path(), idx, s.prod.FP, want.FP)
				}
				if got := fmt.Sprint(append(parent.Path(), idx)); got != fmt.Sprint(want.Path()) {
					t.Fatalf("slow path %v, want %s", want.Path(), got)
				}
				ne := s.materialize()
				if key, _ := ne.appendKey(nil, nil); string(key) != want.Key || ne.FP != want.FP {
					t.Fatalf("pair %v+%d: materialized clone has a different key", parent.Path(), idx)
				}
				if fmt.Sprint(ne.Path()) != fmt.Sprint(want.Path()) || ne.Depth != want.Depth {
					t.Fatalf("materialized path %v depth %d, want %v depth %d", ne.Path(), ne.Depth, want.Path(), want.Depth)
				}
				if errText(s.finishCheck(ne)) != errText(want.FinishCheck()) {
					t.Fatalf("pair %v+%d: scratch finish check differs from FinishCheck", parent.Path(), idx)
				}
			}
			if checked == 0 {
				t.Fatal("no accepted pair checked")
			}
			if tc.name == "storebuffer" && rejections == 0 {
				t.Fatal("storebuffer produced no rejected pair")
			}
			t.Logf("%d states, %d pairs checked, %d rejections", len(states), checked, rejections)
		})
	}
}

// TestReplayProductMatchesChainedStep checks that replaying a path by
// stepping one product in place reproduces the chained Product.Step result
// — key, fingerprint, path and depth — and that a rejecting path replays to
// the same violation path and error.
func TestReplayProductMatchesChainedStep(t *testing.T) {
	for _, tc := range scratchTargets {
		t.Run(tc.name, func(t *testing.T) {
			tgt, err := registry.Build(tc.name, registry.Options{Params: tc.params})
			if err != nil {
				t.Fatal(err)
			}
			p := tgt.Protocol
			po := ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator}
			states := slowStates(t, p, po, 300)
			rng := rand.New(rand.NewSource(7))
			violations := 0
			for n := 0; n < 60; n++ {
				want := states[rng.Intn(len(states))]
				got, viol, err := ReplayProduct(p, po, want.Path())
				if err != nil || viol != nil {
					t.Fatalf("replay of %v: err %v, violation %v", want.Path(), err, viol)
				}
				if got.Key != want.Key || got.FP != want.FP || got.Depth != want.Depth || fmt.Sprint(got.Path()) != fmt.Sprint(want.Path()) {
					t.Fatalf("replay of %v differs from the chained Step result", want.Path())
				}
				for idx, tr := range p.Transitions(want.PState) {
					if _, serr := want.Step(tr, idx); serr != nil {
						path := append(want.Path(), idx)
						_, viol, err := ReplayProduct(p, po, path)
						if err != nil || viol == nil {
							t.Fatalf("replay of rejecting path %v: err %v, no violation", path, err)
						}
						if fmt.Sprint(viol.Path) != fmt.Sprint(path) || viol.Err.Error() != serr.Error() {
							t.Fatalf("replay violation %v %q, want %v %q", viol.Path, viol.Err, path, serr)
						}
						violations++
						break
					}
				}
			}
			if tc.name == "storebuffer" && violations == 0 {
				t.Fatal("storebuffer replayed no violation")
			}
		})
	}
}

func TestFingerprintBytesMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		if FingerprintBytes(b) != Fingerprint(string(b)) {
			t.Fatalf("FingerprintBytes(%x) != Fingerprint(string)", b)
		}
	}
	for _, g := range goldenFingerprints {
		if FingerprintBytes([]byte(g.key)) != g.fp {
			t.Errorf("FingerprintBytes(%q) differs from the golden %#016x", g.key, g.fp)
		}
	}
}

// TestScratchStepAllocationFree pins the point of the scratch: once warm,
// stepping a duplicate successor allocates nothing on the key, observer or
// checker side — only the protocol's own successor construction and the
// observer's symbol values remain.
func TestScratchStepAllocationFree(t *testing.T) {
	tgt, err := registry.Build("writethrough", registry.Options{Params: trace.Params{Procs: 2, Blocks: 1, Values: 1}})
	if err != nil {
		t.Fatal(err)
	}
	po := ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator}
	states := slowStates(t, tgt.Protocol, po, 200)
	parent := states[len(states)-1]
	trs := tgt.Protocol.Transitions(parent.PState)
	s := newScratch(tgt.Protocol, po)
	for i := 0; i < 3; i++ {
		_ = s.step(parent, trs[0], 0)
	}
	slow := testing.AllocsPerRun(50, func() { _, _ = parent.Step(trs[0], 0) })
	fast := testing.AllocsPerRun(50, func() { _ = s.step(parent, trs[0], 0) })
	if fast > slow/4 {
		t.Fatalf("scratch step allocates %.0f times, Product.Step %.0f: want at most a quarter", fast, slow)
	}
	t.Logf("allocations per successor: scratch %.0f, Product.Step %.0f", fast, slow)
}

package observer_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"

	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/protocols/lazycache"
	"scverify/internal/registry"
	"scverify/internal/trace"
)

// goldenStreams pins, per registry target at p2 b2 v2 with queue cap 1,
// the sha256 of what streamHash writes for seeds 1–8 of 80-step random
// runs: every emitted symbol, the canonical key and FinishIsNoOp after
// every step, and the Finish symbols and error. They cover both
// serialization modes, including the order of a queue-mode Finish.
var goldenStreams = map[string]string{
	"directory":                  "8760063888e7c8d2cc0f0de9fe45c16007ed7448f30f61fd79d58eee1482ed0c",
	"dragon":                     "766a13029be7a0bcbb92f9946a21c651e3cdaf5d257ec092e4542ff298f00b22",
	"lazy":                       "addc4d183a0e660894ca7e5634a4f68effb2e8b57051ae95f83913b093087346",
	"lazy-realtime":              "86fae7795679fbb868957d5e3d45e76bd349b47e3577e5fac2261b3d58115b91",
	"mesi":                       "ff4055dd744b8d104ea128cb5b3e59cfdbd87af745c7d8a47ab52c4dd14ca9f0",
	"moesi":                      "398736d67b8e0b14ef8b64e3e265d9a8f8097efdebbe1843e095c6c3a34a52f8",
	"msi":                        "df615f04e00cc49ebe0e2dc9e170efb12a14f553a73f970cc4dfe09c54f25987",
	"msi-lost-writeback":         "fec70213ebdad1975fe61e938d29a7e924d727d17621480e58fe5486a42f5a70",
	"msi-no-invalidate":          "fda9aa745e94f843c95aed1996cc8df88db75e85d0ef8ec8df9580589386ef8b",
	"serial":                     "8126aca0c699536f3afd721c684d3ac44da0b01399b00e43de19c5b27f2cb11b",
	"storebuffer":                "90617ef261b9461d78ed093f927f012bd54bfd3598e1943751e4a841f7bae6e2",
	"storebuffer-fenced":         "947bd24206dbe8ecf280c64e4d5931391654152a1ea8e6bcb302199b6834d224",
	"writethrough":               "d382b18b17f742419b08cf9561788981cca3c5b8503c272515e80087c4f53c71",
	"writethrough-no-invalidate": "dc0ef4e33e6acf75d020dcf69d287adbd46298f9c7b745676bd1b083f5899c04",
}

// streamHash writes one target's observer output over the golden runs.
func streamHash(tgt registry.Target, h hash.Hash) {
	emit := func(sym descriptor.Symbol) error {
		fmt.Fprintf(h, "sym %s\n", descriptor.Stream{sym}.Text())
		return nil
	}
	for seed := int64(1); seed <= 8; seed++ {
		run := protocol.RandomRun(tgt.Protocol, 80, seed)
		fmt.Fprintf(h, "seed %d\n", seed)
		o := observer.New(tgt.Protocol, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize}, emit)
		for i, st := range run.Steps {
			err := o.Step(st.Transition)
			fmt.Fprintf(h, "step %d err %s key %x noop %v\n", i, errText(err), o.CanonicalKey(o.CanonicalRename()), o.FinishIsNoOp())
			if err != nil {
				break
			}
		}
		fmt.Fprintf(h, "finish %s\n", errText(o.Finish()))
	}
}

// TestObserverStreamsGolden pins the observer's symbols, keys and Finish
// emission for every registry target.
func TestObserverStreamsGolden(t *testing.T) {
	for _, name := range registry.Names() {
		tgt, err := registry.Build(name, registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 2}, QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		streamHash(tgt, h)
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenStreams[name] {
			t.Errorf("%s: stream hash %s, want %s", name, got, goldenStreams[name])
		}
	}
}

// TestQueueFinishEmitsEdgesFirst pins the order of a queue-mode Finish:
// every ST-order edge goes out before the forced edges owed to a first
// store. P1's ⊥-load waits for B1's first store; at the end both stores
// are still queued, P1's is first and P2's follows it.
func TestQueueFinishEmitsEdgesFirst(t *testing.T) {
	m := lazycache.New(trace.Params{Procs: 2, Blocks: 1, Values: 2}, 1, 2)
	r := protocol.NewRunner(m)
	for _, want := range []string{"LD(P1,B1,⊥)", "ST(P1,B1,1)", "ST(P2,B1,2)"} {
		i := slices.IndexFunc(r.Enabled(), func(tr protocol.Transition) bool { return tr.Action.String() == want })
		if i < 0 {
			t.Fatalf("%s not enabled", want)
		}
		r.Take(r.Enabled()[i])
	}
	var rec recorder
	o := observer.New(m, observer.Generator{SerializeOn: lazycache.MemoryWrite}, observer.Config{PoolSize: m.RecommendedPoolSize()}, rec.emit)
	for _, st := range r.Run().Steps {
		if err := o.Step(st.Transition); err != nil {
			t.Fatal(err)
		}
	}
	n := len(rec.syms)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	// The ⊥-load (ID 1) is released once its forced edge is out.
	want := []string{"(2,3),STo", "(1,2),forced", "add-ID(20,1)"}
	if got := rec.syms[n:]; !slices.Equal(got, want) {
		t.Errorf("Finish emitted %q, want %q", got, want)
	}
}

package observer_test

import (
	"bytes"
	"testing"

	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/protocols/lazycache"
	"scverify/internal/protocols/serial"
	"scverify/internal/protocols/storebuffer"
	"scverify/internal/trace"
)

// recorder is a symbol sink that keeps what it receives.
type recorder struct{ syms []string }

func (r *recorder) emit(sym descriptor.Symbol) error {
	r.syms = append(r.syms, descriptor.Stream{sym}.Text())
	return nil
}

func canonicalKey(o *observer.Observer) []byte { return o.CanonicalKey(o.CanonicalRename()) }

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestObserverCopyFromMatchesClone checks that CopyFrom into a dirty
// observer and Clone yield observers with the source's future. First the
// copy and the clone step through every suffix: they must report the same
// errors, keep the same keys and emit the same symbols, the copy into its
// own sink, while the source stays as it was. Then the source steps through
// the suffix and must agree with them at every step, while the copy and
// the clone stay as they ended. It covers the real-time and queue-aware
// generators.
func TestObserverCopyFromMatchesClone(t *testing.T) {
	lazy := lazycache.New(trace.Params{Procs: 2, Blocks: 1, Values: 2}, 1, 2)
	cases := []struct {
		name string
		p    protocol.Protocol
		gen  observer.Generator
		pool int
	}{
		{"serial", serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2}), observer.Generator{}, 0},
		{"storebuffer", storebuffer.New(trace.Params{Procs: 2, Blocks: 2, Values: 1}, 1), observer.Generator{}, 0},
		{"lazy", lazy, observer.Generator{SerializeOn: lazycache.MemoryWrite}, lazy.RecommendedPoolSize()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := observer.Config{PoolSize: tc.pool}
			var dstSink recorder
			dst := observer.New(tc.p, tc.gen, cfg, dstSink.emit)
			for seed := int64(1); seed <= 6; seed++ {
				run := protocol.RandomRun(tc.p, 30, seed)
				for cut := 0; cut <= len(run.Steps); cut++ {
					var srcSink recorder
					src := observer.New(tc.p, tc.gen, cfg, srcSink.emit)
					for _, st := range run.Steps[:cut] {
						_ = src.Step(st.Transition)
					}
					before, emitted := canonicalKey(src), len(srcSink.syms)

					dst.CopyFrom(src)
					var clSink recorder
					cl := src.Clone(clSink.emit)
					dstSink.syms = dstSink.syms[:0]
					var errs []string
					var keys [][]byte
					for i, st := range run.Steps[cut:] {
						e1, e2 := dst.Step(st.Transition), cl.Step(st.Transition)
						if errText(e1) != errText(e2) {
							t.Fatalf("seed %d cut %d step %d: copy says %q, clone says %q", seed, cut, i, errText(e1), errText(e2))
						}
						if !bytes.Equal(canonicalKey(dst), canonicalKey(cl)) || !bytes.Equal(dst.StateKey(), cl.StateKey()) {
							t.Fatalf("seed %d cut %d step %d: keys differ", seed, cut, i)
						}
						errs, keys = append(errs, errText(e1)), append(keys, dst.StateKey())
					}
					fin := errText(dst.Finish())
					if e := errText(cl.Finish()); e != fin {
						t.Fatalf("seed %d cut %d: Finish: copy says %q, clone says %q", seed, cut, fin, e)
					}
					sameSymbols(t, seed, cut, "copy", dstSink.syms, clSink.syms)
					if len(srcSink.syms) != emitted || !bytes.Equal(canonicalKey(src), before) {
						t.Fatalf("seed %d cut %d: stepping the copy touched the source", seed, cut)
					}

					endDst, endCl := canonicalKey(dst), canonicalKey(cl)
					for i, st := range run.Steps[cut:] {
						if e := errText(src.Step(st.Transition)); e != errs[i] {
							t.Fatalf("seed %d cut %d step %d: source says %q, copy said %q", seed, cut, i, e, errs[i])
						}
						if !bytes.Equal(src.StateKey(), keys[i]) {
							t.Fatalf("seed %d cut %d step %d: source key differs from the copy's", seed, cut, i)
						}
					}
					if e := errText(src.Finish()); e != fin {
						t.Fatalf("seed %d cut %d: Finish: source says %q, copy said %q", seed, cut, e, fin)
					}
					sameSymbols(t, seed, cut, "source", srcSink.syms[emitted:], clSink.syms)
					if !bytes.Equal(canonicalKey(dst), endDst) || !bytes.Equal(canonicalKey(cl), endCl) {
						t.Fatalf("seed %d cut %d: stepping the source touched the copy or the clone", seed, cut)
					}
				}
			}
		})
	}
}

// sameSymbols fails unless got, what the named observer emitted, equals
// the clone's emissions.
func sameSymbols(t *testing.T, seed int64, cut int, name string, got, clone []string) {
	t.Helper()
	if len(got) != len(clone) {
		t.Fatalf("seed %d cut %d: %s emitted %d symbols, clone %d", seed, cut, name, len(got), len(clone))
	}
	for i := range clone {
		if got[i] != clone[i] {
			t.Fatalf("seed %d cut %d: symbol %d: %s %s, clone %s", seed, cut, i, name, got[i], clone[i])
		}
	}
}

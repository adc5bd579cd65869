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
// observer and Clone yield observers that emit the same symbols, report the
// same errors and keep the same keys on every suffix; that the copy keeps
// emitting into its own sink; and that the source is left untouched. It
// covers the real-time and queue-aware generators.
func TestObserverCopyFromMatchesClone(t *testing.T) {
	lazy := lazycache.New(trace.Params{Procs: 2, Blocks: 1, Values: 2}, 1, 2)
	cases := []struct {
		name string
		p    protocol.Protocol
		gen  func() observer.STOrderGenerator
		pool int
	}{
		{"serial", serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2}), func() observer.STOrderGenerator { return observer.NewRealTime() }, 0},
		{"storebuffer", storebuffer.New(trace.Params{Procs: 2, Blocks: 2, Values: 1}, 1), func() observer.STOrderGenerator { return observer.NewRealTime() }, 0},
		{"lazy", lazy, func() observer.STOrderGenerator { return lazycache.NewGenerator(2) }, lazy.RecommendedPoolSize()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := observer.Config{PoolSize: tc.pool}
			var dstSink recorder
			dst := observer.New(tc.p, tc.gen(), cfg, dstSink.emit)
			for seed := int64(1); seed <= 6; seed++ {
				run := protocol.RandomRun(tc.p, 30, seed)
				for cut := 0; cut <= len(run.Steps); cut++ {
					var srcSink recorder
					src := observer.New(tc.p, tc.gen(), cfg, srcSink.emit)
					for _, st := range run.Steps[:cut] {
						_ = src.Step(st.Transition)
					}
					before, emitted := canonicalKey(src), len(srcSink.syms)

					dst.CopyFrom(src)
					var clSink recorder
					cl := src.Clone(clSink.emit)
					dstSink.syms = dstSink.syms[:0]
					for i, st := range run.Steps[cut:] {
						e1, e2 := dst.Step(st.Transition), cl.Step(st.Transition)
						if errText(e1) != errText(e2) {
							t.Fatalf("seed %d cut %d step %d: copy says %q, clone says %q", seed, cut, i, errText(e1), errText(e2))
						}
						if !bytes.Equal(canonicalKey(dst), canonicalKey(cl)) || !bytes.Equal(dst.StateKey(), cl.StateKey()) {
							t.Fatalf("seed %d cut %d step %d: keys differ", seed, cut, i)
						}
					}
					if e1, e2 := dst.Finish(), cl.Finish(); errText(e1) != errText(e2) {
						t.Fatalf("seed %d cut %d: Finish: copy says %q, clone says %q", seed, cut, errText(e1), errText(e2))
					}
					if len(dstSink.syms) != len(clSink.syms) {
						t.Fatalf("seed %d cut %d: copy emitted %d symbols to its own sink, clone %d", seed, cut, len(dstSink.syms), len(clSink.syms))
					}
					for i := range clSink.syms {
						if dstSink.syms[i] != clSink.syms[i] {
							t.Fatalf("seed %d cut %d: symbol %d: copy %s, clone %s", seed, cut, i, dstSink.syms[i], clSink.syms[i])
						}
					}
					if len(srcSink.syms) != emitted || !bytes.Equal(canonicalKey(src), before) {
						t.Fatalf("seed %d cut %d: stepping the copy touched the source", seed, cut)
					}
				}
			}
		})
	}
}

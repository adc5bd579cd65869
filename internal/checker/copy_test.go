package checker

import (
	"bytes"
	"math/rand"
	"testing"

	"scverify/internal/descriptor"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/protocols/msibus"
	"scverify/internal/protocols/serial"
	"scverify/internal/protocols/storebuffer"
	"scverify/internal/trace"
)

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// runInto steps c through s, ignoring rejections (they are sticky).
func runInto(c *Checker, s descriptor.Stream) {
	for _, sym := range s {
		_ = c.Step(sym)
	}
}

// sameFuture steps a and b through the same suffix and fails on the first
// difference in error text or state key, then compares their Finish.
func sameFuture(t *testing.T, a, b *Checker, suffix descriptor.Stream) {
	t.Helper()
	for i, sym := range suffix {
		ea, eb := a.Step(sym), b.Step(sym)
		if errString(ea) != errString(eb) {
			t.Fatalf("suffix symbol %d (%s): copy says %q, clone says %q", i, sym, errString(ea), errString(eb))
		}
		if !bytes.Equal(a.StateKey(), b.StateKey()) {
			t.Fatalf("suffix symbol %d (%s): state keys differ", i, sym)
		}
	}
	if ea, eb := a.FinishDry(), b.FinishDry(); errString(ea) != errString(eb) {
		t.Fatalf("FinishDry: copy says %q, clone says %q", errString(ea), errString(eb))
	}
	if ea, eb := a.Finish(), b.Finish(); errString(ea) != errString(eb) {
		t.Fatalf("Finish: copy says %q, clone says %q", errString(ea), errString(eb))
	}
}

// observedStreams returns observer-generated descriptor streams of random
// runs (with their k): ⊥-loads, forced edges, armed obligations and — from
// the store buffer — rejections.
func observedStreams(t *testing.T) ([]descriptor.Stream, []int) {
	t.Helper()
	protos := []protocol.Protocol{
		serial.New(trace.Params{Procs: 2, Blocks: 2, Values: 2}),
		msibus.New(trace.Params{Procs: 2, Blocks: 1, Values: 2}),
		storebuffer.New(trace.Params{Procs: 2, Blocks: 2, Values: 1}, 1),
	}
	var streams []descriptor.Stream
	var ks []int
	for _, p := range protos {
		for seed := int64(1); seed <= 4; seed++ {
			run := protocol.RandomRun(p, 24, seed)
			s, obs, _ := observer.ObserveRun(run, observer.NewRealTime(), observer.Config{})
			if len(s) > 90 {
				s = s[:90]
			}
			streams = append(streams, s)
			ks = append(ks, obs.K())
		}
	}
	return streams, ks
}

// TestCopyFromMatchesClone checks that CopyFrom into a dirty checker and
// Clone produce checkers with identical futures, at every cut of every
// observed stream and in witness mode too, and on random adversarial
// streams, and that the source is left untouched.
// The cuts must between them cover non-empty ⊥-load obligations, forced
// edge sets and armed obligations, and a rejected source.
func TestCopyFromMatchesClone(t *testing.T) {
	streams, ks := observedStreams(t)
	var sawBottoms, sawForced, sawArmed, sawRejected bool
	for si, s := range streams {
		k := ks[si]
		dst := New(k)
		runInto(dst, streams[(si+1)%len(streams)])
		for cut := 0; cut <= len(s); cut++ {
			for _, witness := range []bool{false, true} {
				src := New(k)
				if witness {
					src.EnableWitness()
				}
				runInto(src, s[:cut])
				sawBottoms = sawBottoms || len(src.bottoms) > 0
				sawArmed = sawArmed || len(src.armed) > 0
				sawRejected = sawRejected || src.Err() != nil
				for _, r := range src.owner {
					sawForced = sawForced || (r != nil && len(r.forcedTo) > 0)
				}
				before := src.StateKey()
				dst.CopyFrom(src)
				cl := src.Clone()
				sameFuture(t, dst, cl, s[cut:])
				if !bytes.Equal(src.StateKey(), before) {
					t.Fatalf("stream %d cut %d: stepping the copy changed the source", si, cut)
				}
			}
		}
	}
	// Adversarial streams: duplicate edges, premature retirements, cycles.
	rng := rand.New(rand.NewSource(5))
	dst := New(4)
	for n := 0; n < 300; n++ {
		data := make([]byte, 3*(8+rng.Intn(40)))
		rng.Read(data)
		s := fuzzStream(data, 4)
		cut := rng.Intn(len(s) + 1)
		src := New(4)
		runInto(src, s[:cut])
		dst.CopyFrom(src)
		sameFuture(t, dst, src.Clone(), s[cut:])
	}
	if !sawBottoms || !sawForced || !sawArmed || !sawRejected {
		t.Fatalf("coverage: bottoms %v, forcedTo %v, armed %v, rejected %v", sawBottoms, sawForced, sawArmed, sawRejected)
	}
}

// TestCopyFromMatchesCloneLargeState covers states with more records than
// linearMemo, where the copy memos switch from a linear scan to a map: a
// program-order chain of stores on distinct IDs, cut every seven symbols.
func TestCopyFromMatchesCloneLargeState(t *testing.T) {
	const n = 3 * linearMemo
	const k = n + 4
	var s descriptor.Stream
	for id := 1; id <= n; id++ {
		op := trace.ST(trace.ProcID(id%2+1), trace.BlockID(id%2+1), trace.Value(1))
		s = append(s, descriptor.Node{ID: id, Op: &op})
		if id > 2 {
			s = append(s, descriptor.Edge{From: id - 2, To: id, Label: descriptor.POSTo})
		}
	}
	dst := New(k)
	for cut := 0; cut <= len(s); cut += 7 {
		src := New(k)
		runInto(src, s[:cut])
		dst.CopyFrom(src)
		sameFuture(t, dst, src.Clone(), s[cut:])
	}
	src := New(k)
	runInto(src, s)
	if src.Err() != nil {
		t.Fatalf("chain rejected: %v", src.Err())
	}
	live := 0
	for _, r := range src.owner {
		if r != nil {
			live++
		}
	}
	if live <= linearMemo {
		t.Fatalf("chain holds %d records, want more than %d", live, linearMemo)
	}
}

// TestPtrMemo checks the memo across its switch from linear scan to map,
// and that reset empties it for reuse.
func TestPtrMemo(t *testing.T) {
	src := make([]*rec, 3*linearMemo)
	dst := make([]*rec, len(src))
	for i := range src {
		src[i], dst[i] = new(rec), new(rec)
	}
	var m ptrMemo[rec]
	for round := 0; round < 2; round++ {
		for i := range src {
			if m.get(src[i]) != nil {
				t.Fatalf("round %d: entry %d present before put", round, i)
			}
			m = m.put(src[i], dst[i])
			for j := 0; j <= i; j++ {
				if m.get(src[j]) != dst[j] {
					t.Fatalf("round %d: after %d puts, entry %d lost", round, i+1, j)
				}
			}
		}
		m.reset()
	}
}

// FuzzCopyFromMatchesClone runs a random prefix, copies the checker into a
// dirty checker with CopyFrom and clones it, then requires the same suffix
// to give equal state keys and verdicts on both.
func FuzzCopyFromMatchesClone(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4}, uint8(2), false)
	f.Add([]byte{1, 0, 0, 1, 5, 5, 4, 4, 3, 2, 0, 2, 1, 3, 3, 3}, uint8(7), true)

	const k = 4
	f.Fuzz(func(t *testing.T, data []byte, cut uint8, witness bool) {
		s := fuzzStream(data, k)
		n := int(cut) % (len(s) + 1)
		src := New(k)
		if witness {
			src.EnableWitness()
		}
		runInto(src, s[:n])
		dst := New(k)
		runInto(dst, fuzzStream(append([]byte{3}, data...), k))
		before := src.StateKey()
		dst.CopyFrom(src)
		sameFuture(t, dst, src.Clone(), s[n:])
		if !bytes.Equal(src.StateKey(), before) {
			t.Fatal("stepping the copy changed the source")
		}
	})
}

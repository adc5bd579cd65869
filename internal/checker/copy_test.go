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

// sameFuture checks src against its copy cp and its clone cl. First cp
// and cl step through suffix: they must agree on every error and state
// key, then on FinishDry and Finish, and src must stay as it was. Then src
// steps through suffix itself and must agree with them at every symbol,
// while cp and cl stay as they ended. The three arenas must end consistent
// (see checkRecords).
func sameFuture(t *testing.T, src, cp, cl *Checker, suffix descriptor.Stream) {
	t.Helper()
	before := src.StateKey()
	var errs []string
	var keys [][]byte
	for i, sym := range suffix {
		ea, eb := cp.Step(sym), cl.Step(sym)
		if errString(ea) != errString(eb) {
			t.Fatalf("suffix symbol %d (%s): copy says %q, clone says %q", i, sym, errString(ea), errString(eb))
		}
		if !bytes.Equal(cp.StateKey(), cl.StateKey()) {
			t.Fatalf("suffix symbol %d (%s): state keys differ", i, sym)
		}
		errs, keys = append(errs, errString(ea)), append(keys, cp.StateKey())
	}
	dry := errString(cp.FinishDry())
	if e := errString(cl.FinishDry()); e != dry {
		t.Fatalf("FinishDry: copy says %q, clone says %q", dry, e)
	}
	fin := errString(cp.Finish())
	if e := errString(cl.Finish()); e != fin {
		t.Fatalf("Finish: copy says %q, clone says %q", fin, e)
	}
	if !bytes.Equal(src.StateKey(), before) {
		t.Fatal("stepping the copy and the clone changed the source")
	}
	endCp, endCl := cp.StateKey(), cl.StateKey()
	for i, sym := range suffix {
		if e := errString(src.Step(sym)); e != errs[i] {
			t.Fatalf("suffix symbol %d (%s): source says %q, copy said %q", i, sym, e, errs[i])
		}
		if !bytes.Equal(src.StateKey(), keys[i]) {
			t.Fatalf("suffix symbol %d (%s): source key differs from the copy's", i, sym)
		}
	}
	if e := errString(src.FinishDry()); e != dry {
		t.Fatalf("FinishDry: source says %q, copy said %q", e, dry)
	}
	if e := errString(src.Finish()); e != fin {
		t.Fatalf("Finish: source says %q, copy said %q", e, fin)
	}
	if !bytes.Equal(cp.StateKey(), endCp) || !bytes.Equal(cl.StateKey(), endCl) {
		t.Fatal("stepping the source changed the copy or the clone")
	}
	for _, c := range []*Checker{src, cp, cl} {
		checkRecords(t, c)
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
			s, obs, _ := observer.ObserveRun(run, observer.Generator{}, observer.Config{})
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
// Clone produce checkers with the source's future, at every cut of every
// observed stream and in witness mode too, and on random adversarial
// streams: copy, clone and source step in turn and must agree (see
// sameFuture). The cuts must between them cover non-empty ⊥-load
// obligations, forced edge lists and armed obligations, and a rejected
// source.
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
				sawRejected = sawRejected || src.Err() != nil
				for _, ob := range src.obligs.items {
					sawArmed = sawArmed || ob.armed()
				}
				for _, r := range src.recs.items {
					sawForced = sawForced || (r.active && r.forced != 0)
				}
				dst.CopyFrom(src)
				sameFuture(t, src, dst, src.Clone(), s[cut:])
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
		sameFuture(t, src, dst, src.Clone(), s[cut:])
	}
	if !sawBottoms || !sawForced || !sawArmed || !sawRejected {
		t.Fatalf("coverage: bottoms %v, forced %v, armed %v, rejected %v", sawBottoms, sawForced, sawArmed, sawRejected)
	}
}

// TestCopyFromMatchesCloneLargeState covers states holding many records: a
// program-order chain of 96 stores on distinct IDs, cut every seven
// symbols.
func TestCopyFromMatchesCloneLargeState(t *testing.T) {
	const n = 96
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
		sameFuture(t, src, dst, src.Clone(), s[cut:])
	}
	src := New(k)
	runInto(src, s)
	if src.Err() != nil {
		t.Fatalf("chain rejected: %v", src.Err())
	}
	live := 0
	for _, r := range src.recs.items {
		if r.active {
			live++
		}
	}
	if live != n {
		t.Fatalf("chain holds %d active records, want %d", live, n)
	}
}

// FuzzCopyFromMatchesClone runs a random prefix, copies the checker into a
// dirty checker with CopyFrom and clones it, then requires source, copy
// and clone to agree on the same suffix (see sameFuture).
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
		dst.CopyFrom(src)
		sameFuture(t, src, dst, src.Clone(), s[n:])
	})
}

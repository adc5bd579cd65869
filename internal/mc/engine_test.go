package mc

import (
	"fmt"
	"testing"

	"scverify/internal/protocols/serial"
	"scverify/internal/trace"
)

// TestCounterexampleReplayEquivalence checks that a counterexample found
// by the parent-pointer path reconstruction replays to the same rejection
// at the same path: ReplayProduct must reject exactly at the final index
// of the reported path, with the same error text. This pins the replay
// path as a faithful serialization of the violating run.
func TestCounterexampleReplayEquivalence(t *testing.T) {
	p := brokenSerial{serial.New(trace.Params{Procs: 2, Blocks: 1, Values: 1})}
	res := Verify(p, Options{Workers: 4})
	if res.Verdict != Violated {
		t.Fatalf("verdict = %v, want Violated", res.Verdict)
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("no counterexample")
	}
	prod, viol, err := ReplayProduct(p, ProductOptions{}, res.Counterexample)
	if err != nil {
		t.Fatalf("replay structural error: %v", err)
	}
	if viol == nil {
		// The path itself stepped cleanly; the rejection must then be a
		// finish-check rejection at the final state.
		if prod == nil {
			t.Fatal("replay returned neither product nor violation")
		}
		ferr := prod.FinishCheck()
		if ferr == nil {
			t.Fatalf("replay of counterexample %v accepted", res.Counterexample)
		}
		if ferr.Error() != res.Err.Error() {
			t.Fatalf("replay finish rejection %q != reported %q", ferr, res.Err)
		}
		return
	}
	if got, want := fmt.Sprint(viol.Path), fmt.Sprint(res.Counterexample); got != want {
		t.Fatalf("replay rejected at %s, reported counterexample %s", got, want)
	}
	if viol.Err.Error() != res.Err.Error() {
		t.Fatalf("replay rejection %q != reported %q", viol.Err, res.Err)
	}
}

// TestExactAndAuditModesAgree runs the same protocol under the default
// fingerprint table, the exact-key fallback, and the audit mode, and
// requires identical state and transition counts (and zero audited
// collisions on a space this small).
func TestExactAndAuditModesAgree(t *testing.T) {
	p := serial.New(trace.Params{Procs: 2, Blocks: 1, Values: 1})
	fp := Verify(p, Options{Workers: 2})
	exact := Verify(p, Options{Workers: 2, ExactKeys: true})
	audit := Verify(p, Options{Workers: 2, AuditCollisions: true})
	for name, r := range map[string]Result{"fp": fp, "exact": exact, "audit": audit} {
		if r.Verdict != Verified {
			t.Fatalf("%s verdict = %v, want Verified", name, r.Verdict)
		}
	}
	if fp.States != exact.States || fp.States != audit.States {
		t.Fatalf("state counts diverge: fp=%d exact=%d audit=%d", fp.States, exact.States, audit.States)
	}
	if fp.Transitions != exact.Transitions || fp.Transitions != audit.Transitions {
		t.Fatalf("transition counts diverge: fp=%d exact=%d audit=%d", fp.Transitions, exact.Transitions, audit.Transitions)
	}
	if audit.Collisions != 0 {
		t.Fatalf("audit reported %d collisions on a %d-state space", audit.Collisions, audit.States)
	}
}

// TestOwnerShardDeterministic pins that shard ownership is a pure
// function of (fingerprint, shard identity list) — the property every
// grid participant relies on — and that the partition is total.
func TestOwnerShardDeterministic(t *testing.T) {
	ids := []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"}
	h1 := ShardHashes(ids)
	h2 := ShardHashes(append([]string(nil), ids...))
	counts := make([]int, len(ids))
	for i := 0; i < 10000; i++ {
		fp := Fingerprint(fmt.Sprintf("state-%d", i))
		a, b := OwnerShard(fp, h1), OwnerShard(fp, h2)
		if a != b {
			t.Fatalf("ownership not deterministic: %d vs %d", a, b)
		}
		counts[a]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no states out of 10000 — partition degenerate: %v", i, counts)
		}
	}
}

// BenchmarkVisitedClaim is the regression guard for the visited-set size
// counter (satellite of the scmc PR): the counter is an atomic.Int64 so
// concurrent claims on distinct shards never serialize through a shared
// mutex. Run with -cpu=1,4 to see the scaling; the old mu-guarded plain
// int64 flatlined here because every claim, regardless of shard, took the
// same counter lock.
func BenchmarkVisitedClaim(b *testing.B) {
	for _, mode := range []string{"fp", "exact"} {
		b.Run(mode, func(b *testing.B) {
			v := newVisitedSet(mode == "exact", false, false)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				var buf [16]byte
				for pb.Next() {
					i++
					n := copy(buf[:], fmt.Sprintf("k%d", i))
					key := buf[:n]
					v.claim(key, FingerprintBytes(key), 0)
				}
			})
		})
	}
}

package scmc

import (
	"context"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"scverify/internal/mc"
	"scverify/internal/registry"
	"scverify/internal/scserve"
	"scverify/internal/trace"
)

// startBackend runs an in-process scserve explore backend on a loopback
// listener and returns its address.
func startBackend(t *testing.T, cfg scserve.Config) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Log == nil {
		cfg.Log = testLog(t)
	}
	srv := scserve.New(cfg)
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// testLog returns a logger whose events go to t.Log.
func testLog(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func startBackends(t *testing.T, n int, cfg scserve.Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startBackend(t, cfg)
	}
	return addrs
}

// singleNode runs the same target through the in-process single-node
// checker, the ground truth the grid must reproduce exactly.
func singleNode(t *testing.T, protocol string, p trace.Params, opts mc.Options) mc.Result {
	t.Helper()
	target, err := registry.Build(protocol, registry.Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	opts.PoolSize = target.PoolSize
	opts.Generator = target.Generator
	return mc.Verify(target.Protocol, opts)
}

// TestGridMatchesSingleNode is the core soundness check: a 2- and a
// 4-backend grid must each report the same verdict and byte-identical
// reachable-state and transition counts as the single-node checker on the
// same target.
func TestGridMatchesSingleNode(t *testing.T) {
	p := trace.Params{Procs: 2, Blocks: 1, Values: 1}
	want := singleNode(t, "writethrough", p, mc.Options{})
	if want.Verdict != mc.Verified {
		t.Fatalf("single-node baseline not verified: %v", want)
	}

	for _, n := range []int{2, 4} {
		addrs := startBackends(t, n, scserve.Config{})
		got := Verify(context.Background(), addrs, Options{
			Protocol:     "writethrough",
			Params:       p,
			StallTimeout: 20 * time.Second,
			Log:          testLog(t),
		})
		if got.Verdict != mc.Verified {
			t.Fatalf("%d backends: grid verdict = %v, want verified: %v", n, got.Verdict, got)
		}
		if got.States != int64(want.States) || got.Transitions != int64(want.Transitions) {
			t.Fatalf("%d backends: grid counted %d states / %d transitions, single-node %d / %d",
				n, got.States, got.Transitions, want.States, want.Transitions)
		}
		if got.Forwards == 0 {
			t.Fatalf("%d backends: grid relayed zero items; the run never actually distributed", n)
		}
		t.Logf("grid, %d backends: %v", n, got)
	}
}

// TestGridExactModeMatches re-runs the equivalence check with exact-key
// visited sets, exercising the key-carrying claim path on the wire.
func TestGridExactModeMatches(t *testing.T) {
	p := trace.Params{Procs: 2, Blocks: 1, Values: 1}
	want := singleNode(t, "serial", p, mc.Options{ExactKeys: true})

	addrs := startBackends(t, 2, scserve.Config{})
	got := Verify(context.Background(), addrs, Options{
		Protocol:     "serial",
		Params:       p,
		Exact:        true,
		StallTimeout: 20 * time.Second,
		Log:          testLog(t),
	})
	if got.Verdict != mc.Verified {
		t.Fatalf("grid verdict = %v, want verified: %v", got.Verdict, got)
	}
	if got.States != int64(want.States) || got.Transitions != int64(want.Transitions) {
		t.Fatalf("grid (exact) counted %d states / %d transitions, single-node %d / %d",
			got.States, got.Transitions, want.States, want.Transitions)
	}
}

// TestGridDetectsViolation verifies that a protocol violating SC yields
// the violated verdict from the grid, with a counterexample the local
// protocol replay rejects — the distributed analogue of single-node
// counterexample fidelity.
func TestGridDetectsViolation(t *testing.T) {
	// Same buggy target and depth bound the single-node checker's own
	// regression uses (writethrough's TestModelCheckerCatchesNoInvalidateBug):
	// the shallowest rejection is within depth 10.
	p := trace.Params{Procs: 2, Blocks: 2, Values: 1}
	addrs := startBackends(t, 2, scserve.Config{})
	got := Verify(context.Background(), addrs, Options{
		Protocol:     "writethrough-no-invalidate",
		Params:       p,
		MaxDepth:     10,
		StallTimeout: 20 * time.Second,
		Log:          testLog(t),
	})
	if got.Verdict != mc.Violated {
		t.Fatalf("grid verdict = %v, want violated: %v", got.Verdict, got)
	}
	if len(got.Counterexample) == 0 {
		t.Fatalf("violated verdict carries no counterexample")
	}
	target, err := registry.Build("writethrough-no-invalidate", registry.Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if _, replayErr := mc.Replay(target.Protocol, got.Counterexample); replayErr != nil {
		t.Fatalf("counterexample does not replay on the local protocol: %v", replayErr)
	}
}

// TestGridExceedsSingleNodeCap is the capacity claim behind the fabric: a
// state budget that makes the single-node checker give up (incomplete)
// still verifies on a 4-shard grid, because per-shard caps add up. The
// grid's reported state count must exceed what any single shard was
// allowed to hold.
func TestGridExceedsSingleNodeCap(t *testing.T) {
	p := trace.Params{Procs: 2, Blocks: 1, Values: 1}
	base := singleNode(t, "serial", p, mc.Options{})
	if base.Verdict != mc.Verified {
		t.Fatalf("uncapped baseline not verified: %v", base)
	}
	// A third of the space: far too small for one node, yet comfortably
	// above any single shard's rendezvous slice (~1/4 of the states).
	cap := base.States / 3

	capped := singleNode(t, "serial", p, mc.Options{MaxStates: cap})
	if capped.Verdict != mc.Incomplete {
		t.Fatalf("single-node with cap %d = %v, want incomplete", cap, capped.Verdict)
	}

	addrs := startBackends(t, 4, scserve.Config{})
	got := Verify(context.Background(), addrs, Options{
		Protocol:          "serial",
		Params:            p,
		MaxStatesPerShard: cap,
		StallTimeout:      30 * time.Second,
		Log:               testLog(t),
	})
	if got.Verdict != mc.Verified {
		t.Fatalf("4-shard grid with per-shard cap %d = %v, want verified: %v", cap, got.Verdict, got)
	}
	if got.States != int64(base.States) {
		t.Fatalf("grid counted %d states, uncapped single-node %d", got.States, base.States)
	}
	if got.States <= int64(cap) {
		t.Fatalf("grid states %d do not exceed the per-shard cap %d; the demo proves nothing", got.States, cap)
	}
}

// TestGridBackendDeathIsIncomplete is the chaos case: killing one
// backend's connection mid-exploration must degrade the verdict to
// incomplete — never verified, and never a hang. The backends run with a
// per-expansion delay so the run is reliably still in flight when the
// connection dies.
func TestGridBackendDeathIsIncomplete(t *testing.T) {
	addrs := startBackends(t, 2, scserve.Config{ExploreStepDelay: 2 * time.Millisecond})

	// Retain coordinator-side connections so the test can sever one.
	var mu sync.Mutex
	var conns []net.Conn
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}

	killed := make(chan struct{})
	var once sync.Once
	progress := func(shards []ShardStats) {
		var total int64
		for _, sh := range shards {
			total += sh.States
		}
		// Wait until real exploration is under way, then sever the last
		// dialed connection (an explore session, not a probe).
		if total >= 8 {
			once.Do(func() {
				mu.Lock()
				conns[len(conns)-1].Close()
				mu.Unlock()
				close(killed)
			})
		}
	}

	got := Verify(context.Background(), addrs, Options{
		Protocol:     "writethrough",
		Params:       trace.Params{Procs: 2, Blocks: 1, Values: 2},
		StallTimeout: 20 * time.Second,
		Dial:         dial,
		Log:          testLog(t),
		Progress:     progress,
	})
	select {
	case <-killed:
	default:
		t.Skipf("run finished before the kill fired; verdict %v", got.Verdict)
	}
	if got.Verdict == mc.Verified {
		t.Fatalf("grid reported verified after losing a backend mid-exploration: %v", got)
	}
	if got.Verdict != mc.Incomplete {
		t.Fatalf("grid verdict = %v, want incomplete: %v", got.Verdict, got)
	}
	if got.Err == nil {
		t.Fatalf("incomplete verdict carries no error")
	}
}

// TestGridNoBackends fails fast when no backend is reachable.
func TestGridNoBackends(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here now
	got := Verify(context.Background(), []string{addr}, Options{
		Protocol: "writethrough",
		Params:   trace.Params{Procs: 2, Blocks: 1, Values: 1},
		Log:      testLog(t),
	})
	if got.Verdict != mc.Incomplete || got.Err == nil {
		t.Fatalf("verdict = %v err = %v, want incomplete with error", got.Verdict, got.Err)
	}
}

// TestGridUnknownProtocol fails locally before touching the network.
func TestGridUnknownProtocol(t *testing.T) {
	got := Verify(context.Background(), []string{"127.0.0.1:1"}, Options{
		Protocol: "no-such-protocol",
		Params:   trace.Params{Procs: 2, Blocks: 1, Values: 1},
	})
	if got.Verdict != mc.Incomplete || got.Err == nil {
		t.Fatalf("verdict = %v err = %v, want incomplete with error", got.Verdict, got.Err)
	}
}

// TestSmokeGrid is the tier-1 smoke target: a 2-backend grid verification
// of the smallest registry config, expected to finish well under the 5s
// budget even under the race detector.
func TestSmokeGrid(t *testing.T) {
	p := trace.Params{Procs: 1, Blocks: 1, Values: 2}
	addrs := startBackends(t, 2, scserve.Config{})
	got := Verify(context.Background(), addrs, Options{
		Protocol:     "serial",
		Params:       p,
		StallTimeout: 10 * time.Second,
		Log:          testLog(t),
	})
	if got.Verdict != mc.Verified {
		t.Fatalf("smoke grid verdict = %v: %v", got.Verdict, got)
	}
	want := singleNode(t, "serial", p, mc.Options{})
	if got.States != int64(want.States) {
		t.Fatalf("smoke grid states %d != single-node %d", got.States, want.States)
	}
}

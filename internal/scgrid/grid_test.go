package scgrid

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/faultnet"
	"scverify/internal/scserve"
)

// testBackend is one scserve backend a test can kill hard and restart on
// the same address.
type testBackend struct {
	t    *testing.T
	addr string

	mu   sync.Mutex
	srv  *scserve.Server
	done chan error
}

func startBackend(t *testing.T, cfg scserve.Config) *testBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tb := &testBackend{t: t, addr: ln.Addr().String()}
	tb.serve(ln, cfg)
	t.Cleanup(tb.kill)
	return tb
}

func (tb *testBackend) serve(ln net.Listener, cfg scserve.Config) {
	srv := scserve.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	tb.mu.Lock()
	tb.srv, tb.done = srv, done
	tb.mu.Unlock()
}

// kill hard-stops the backend: the listener closes and every in-flight
// connection is severed mid-frame (an expired shutdown context).
func (tb *testBackend) kill() {
	tb.mu.Lock()
	srv, done := tb.srv, tb.done
	tb.srv, tb.done = nil, nil
	tb.mu.Unlock()
	if srv == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
	<-done
}

// restart brings a fresh server (empty checkpoint store) up on the same
// address.
func (tb *testBackend) restart(cfg scserve.Config) {
	tb.t.Helper()
	tb.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", tb.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tb.t.Fatalf("restart on %s: %v", tb.addr, err)
	}
	tb.serve(ln, cfg)
}

// newTestGrid builds a grid over the given backends with background
// probing disabled (tests drive ProbeNow) and short, deterministic knobs.
func newTestGrid(t *testing.T, cfg Config, tbs ...*testBackend) *Grid {
	t.Helper()
	addrs := make([]string, len(tbs))
	for i, tb := range tbs {
		addrs[i] = tb.addr
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.BaseDelay == 0 {
		cfg.BaseDelay = 5 * time.Millisecond
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 100 * time.Millisecond
	}
	if cfg.ReadmitDelay == 0 {
		cfg.ReadmitDelay = 50 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = testLog(t)
	}
	g, err := New(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
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

// recordLog is a slog handler that keeps each event as its message
// followed by its attributes.
type recordLog struct {
	mu     sync.Mutex
	events []string
}

func (r *recordLog) Enabled(context.Context, slog.Level) bool { return true }
func (r *recordLog) WithAttrs([]slog.Attr) slog.Handler       { return r }
func (r *recordLog) WithGroup(string) slog.Handler            { return r }

func (r *recordLog) Handle(_ context.Context, rec slog.Record) error {
	ev := rec.Message
	rec.Attrs(func(a slog.Attr) bool {
		ev += " " + a.String()
		return true
	})
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
	return nil
}

// has reports whether an event begins with prefix.
func (r *recordLog) has(prefix string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.events {
		if strings.HasPrefix(ev, prefix) {
			return true
		}
	}
	return false
}

// TestGridCheckBasic: accepts and rejects through the grid match the
// a-priori verdicts of the synthetic streams, and sessions actually
// spread across both backends.
func TestGridCheckBasic(t *testing.T) {
	b1 := startBackend(t, scserve.Config{})
	b2 := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{}, b1, b2)

	rejStream, rejIdx := scserve.SyntheticReject(32)
	for i := 0; i < 24; i++ {
		h := scserve.SyntheticHeader()
		if i%2 == 1 {
			h.Token = scserve.NewToken() // alternate one-shot and tokened
		}
		if i%3 == 0 {
			v, err := g.Check(h, rejStream)
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if v.Code != scserve.VerdictReject || v.Symbol != rejIdx {
				t.Fatalf("session %d: verdict %s, want reject at symbol %d", i, v, rejIdx)
			}
		} else {
			v, err := g.Check(h, scserve.SyntheticAccept(64))
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if v.Code != scserve.VerdictAccept {
				t.Fatalf("session %d: verdict %s, want accept", i, v)
			}
		}
	}
	st := g.Stats()
	if st.Healthy != 2 {
		t.Fatalf("healthy = %d, want 2", st.Healthy)
	}
	for _, bs := range st.Backends {
		if bs.Sessions == 0 {
			t.Errorf("backend %s served no sessions — dispatch never spread", bs.Addr)
		}
		if bs.InFlight != 0 {
			t.Errorf("backend %s leaked %d in-flight slots", bs.Addr, bs.InFlight)
		}
	}
}

// TestRendezvousPinning: a token maps to one stable backend; ejecting
// that backend remaps only its tokens; re-admission maps them back.
func TestRendezvousPinning(t *testing.T) {
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1"}
	g, err := New(addrs, Config{ProbeInterval: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	p := g.pool

	tokens := make([]string, 64)
	home := make([]*backend, 64)
	for i := range tokens {
		tokens[i] = scserve.NewToken()
		home[i] = p.pinned(tokens[i])
		if home[i] == nil {
			t.Fatal("pinned returned nil with a healthy pool")
		}
		for j := 0; j < 5; j++ {
			if got := p.pinned(tokens[i]); got != home[i] {
				t.Fatalf("token %d flapped between %s and %s", i, home[i].addr, got.addr)
			}
		}
	}
	// All four backends should own some tokens (64 tokens, 4 backends:
	// an empty owner is ~1e-9 under a uniform hash).
	owned := map[*backend]int{}
	for _, h := range home {
		owned[h]++
	}
	if len(owned) != len(addrs) {
		t.Fatalf("only %d of %d backends own tokens — rendezvous is skewed", len(owned), len(addrs))
	}

	victim := p.backends[1]
	p.eject(victim, fmt.Errorf("test ejection"))
	for i, tok := range tokens {
		got := p.pinned(tok)
		if home[i] == victim {
			if got == victim {
				t.Fatalf("token %d still pinned to the ejected backend", i)
			}
		} else if got != home[i] {
			t.Fatalf("token %d moved from %s to %s though its backend is healthy — rendezvous disturbed unrelated tokens", i, home[i].addr, got.addr)
		}
	}
	p.readmit(victim)
	for i, tok := range tokens {
		if got := p.pinned(tok); got != home[i] {
			t.Fatalf("token %d did not map back to %s after re-admission", i, home[i].addr)
		}
	}
}

// TestP2CPrefersLessLoaded: with one backend artificially loaded, the
// two-choice draw places the bulk of one-shot sessions on the idle one.
func TestP2CPrefersLessLoaded(t *testing.T) {
	g, err := New([]string{"10.0.0.1:1", "10.0.0.2:1"}, Config{ProbeInterval: -1, Seed: 11, MaxInFlight: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	p := g.pool
	p.backends[0].inflight.Store(500)

	placed := map[*backend]int{}
	var got []*backend
	for i := 0; i < 100; i++ {
		b, err := p.tryAcquireP2C()
		if err != nil || b == nil {
			t.Fatalf("acquire %d: %v, %v", i, b, err)
		}
		placed[b]++
		got = append(got, b)
	}
	for _, b := range got {
		b.release()
	}
	// Both draws hit the loaded backend with prob 1/4… but its inflight
	// head start means even then the idle one catches up first. Expect a
	// strong skew, not perfection.
	if placed[p.backends[1]] < 90 {
		t.Fatalf("idle backend got %d/100 placements, want ≥90 (p2c not load-aware?)", placed[p.backends[1]])
	}
}

// TestGridResumeOnBlip: a transient connection reset mid-stream must
// resume on the same backend from its checkpoint — not fail over, not
// restart from byte zero — and still deliver the right verdict.
func TestGridResumeOnBlip(t *testing.T) {
	tb := startBackend(t, scserve.Config{AckInterval: 16})
	fd := faultnet.NewDialer(faultnet.Config{Seed: 3, ResetAfterBytes: 4 << 10})
	g := newTestGrid(t, Config{
		Dial:      Dialer(fd.DialContext),
		PollEvery: 512,
	}, tb)

	h := scserve.SyntheticHeader()
	h.Token = scserve.NewToken()
	stream := scserve.SyntheticAccept(2000) // well past several reset budgets
	v, err := g.Check(h, stream)
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %s, want accept", v)
	}
	st := g.Stats().Backends[0]
	if fd.Stats().Resets.Load() == 0 {
		t.Fatal("no reset ever fired — the test exercised nothing")
	}
	if st.Resumes == 0 {
		t.Fatal("session reconnected without ever resuming from a checkpoint")
	}
	if st.Failovers != 0 {
		t.Fatalf("%d failovers on a single-backend pool", st.Failovers)
	}
}

// TestGridFailoverOnBackendDeath: killing the pinned backend mid-session
// must move the session to a live backend, replay from byte zero, and
// deliver the correct verdict; the dead backend must be ejected.
func TestGridFailoverOnBackendDeath(t *testing.T) {
	b1 := startBackend(t, scserve.Config{AckInterval: 16})
	b2 := startBackend(t, scserve.Config{AckInterval: 16})
	tbs := []*testBackend{b1, b2}
	g := newTestGrid(t, Config{PollEvery: 256}, b1, b2)

	h := scserve.SyntheticHeader()
	h.Token = scserve.NewToken()
	s, err := g.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stream, rejIdx := scserve.SyntheticReject(600)
	half := len(stream) / 2
	if err := s.Send(stream[:half]...); err != nil {
		t.Fatal(err)
	}
	pinnedAddr := s.Backend()
	var victim, survivor *testBackend
	for _, tb := range tbs {
		if tb.addr == pinnedAddr {
			victim = tb
		} else {
			survivor = tb
		}
	}
	if victim == nil {
		t.Fatalf("session reports backend %q, not in the pool", pinnedAddr)
	}
	victim.kill()

	if err := s.Send(stream[half:]...); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictReject || v.Symbol != rejIdx {
		t.Fatalf("verdict %s, want reject at symbol %d — failover replay lost bytes", v, rejIdx)
	}
	if got := s.Backend(); got != survivor.addr && got != "" {
		t.Fatalf("session finished on %s, want the survivor %s", got, survivor.addr)
	}
	st := g.Stats()
	for _, bs := range st.Backends {
		switch bs.Addr {
		case victim.addr:
			if bs.Healthy {
				t.Error("dead backend still marked healthy")
			}
			if bs.Ejections == 0 {
				t.Error("dead backend was never ejected")
			}
		case survivor.addr:
			if bs.Failovers == 0 {
				t.Error("survivor shows no failover")
			}
			if bs.Rejects != 1 {
				t.Errorf("survivor rejects = %d, want 1", bs.Rejects)
			}
		}
	}
}

// TestGridFreshStartAfterRestart: a backend restart (same address, empty
// checkpoint store) answers the resume attempt with a resume miss; the
// session must restart fresh on the same backend and still be right.
func TestGridFreshStartAfterRestart(t *testing.T) {
	tb := startBackend(t, scserve.Config{AckInterval: 8})
	g := newTestGrid(t, Config{PollEvery: 128}, tb)

	h := scserve.SyntheticHeader()
	h.Token = scserve.NewToken()
	s, err := g.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stream := scserve.SyntheticAccept(800)
	half := len(stream) / 2
	if err := s.Send(stream[:half]...); err != nil {
		t.Fatal(err)
	}
	tb.restart(scserve.Config{AckInterval: 8})

	if err := s.Send(stream[half:]...); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %s, want accept — fresh start after restart lost bytes", v)
	}
}

// TestGridAdmissionShed: with one slot in the pool, a held session makes
// further arrivals queue; the queue deadline and the depth bound both
// shed with the busy verdict, and the held session still completes.
func TestGridAdmissionShed(t *testing.T) {
	tb := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{
		MaxInFlight: 1,
		QueueDepth:  1,
		QueueWait:   100 * time.Millisecond,
	}, tb)

	holder, err := g.Session(scserve.SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Send(scserve.SyntheticAccept(8)...); err != nil {
		t.Fatal(err) // acquires the pool's only slot
	}

	var wg sync.WaitGroup
	verdicts := make([]scserve.Verdict, 3)
	errs := make([]error, 3)
	for i := range verdicts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i], errs[i] = g.Check(scserve.SyntheticHeader(), scserve.SyntheticAccept(8))
		}(i)
	}
	wg.Wait()
	for i, v := range verdicts {
		if errs[i] != nil {
			t.Fatalf("shed session %d returned error %v, want busy verdict", i, errs[i])
		}
		if !v.Busy() {
			t.Fatalf("session %d verdict %s, want busy (shed)", i, v)
		}
	}
	if g.Stats().Sheds < 3 {
		t.Fatalf("sheds = %d, want ≥3", g.Stats().Sheds)
	}

	v, err := holder.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("held session verdict %s, want accept", v)
	}
}

// TestGridProbeEjectsAndReadmits: the health prober ejects a dead backend
// and re-admits it after restart, and logs both, the ejection with its
// cause.
func TestGridProbeEjectsAndReadmits(t *testing.T) {
	tb := startBackend(t, scserve.Config{})
	rec := &recordLog{}
	g := newTestGrid(t, Config{ReadmitDelay: 20 * time.Millisecond, Log: slog.New(rec)}, tb)

	g.ProbeNow()
	if g.Healthy() != 1 {
		t.Fatalf("healthy = %d after probing a live backend", g.Healthy())
	}
	tb.kill()
	g.ProbeNow()
	if g.Healthy() != 0 {
		t.Fatal("probe did not eject the dead backend")
	}
	tb.restart(scserve.Config{})
	deadline := time.Now().Add(5 * time.Second)
	for g.Healthy() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted backend never re-admitted")
		}
		time.Sleep(25 * time.Millisecond)
		g.ProbeNow()
	}
	st := g.Stats().Backends[0]
	if st.Ejections == 0 || st.Probes < 2 {
		t.Fatalf("ejections=%d probes=%d, want ≥1 and ≥2", st.Ejections, st.Probes)
	}
	for _, want := range []string{"backend_eject backend=" + tb.addr + " err=", "backend_readmit backend=" + tb.addr + " down="} {
		if !rec.has(want) {
			t.Errorf("no %q event in %q", want, rec.events)
		}
	}
}

// TestGridSmokeKillBackend is the tier-1 smoke: a 3-backend grid serving
// a mixed campaign, with one backend hard-killed while sessions are in
// flight. Every delivered verdict must match the stream's a-priori
// verdict; faults may only cost retries. Deterministic and fast enough
// for the race detector.
func TestGridSmokeKillBackend(t *testing.T) {
	tbs := []*testBackend{
		startBackend(t, scserve.Config{AckInterval: 16}),
		startBackend(t, scserve.Config{AckInterval: 16}),
		startBackend(t, scserve.Config{AckInterval: 16}),
	}
	g := newTestGrid(t, Config{PollEvery: 256, QueueWait: 5 * time.Second}, tbs[0], tbs[1], tbs[2])

	const sessions = 36
	rejStream, rejIdx := scserve.SyntheticReject(200)
	accStream := scserve.SyntheticAccept(200)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var fatal []string
	killed := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == sessions/3 {
				tbs[1].kill() // mid-campaign, with sessions in flight everywhere
				close(killed)
			}
			h := scserve.SyntheticHeader()
			if i%2 == 0 {
				h.Token = scserve.NewToken()
			}
			wantReject := i%3 == 0
			stream := accStream
			if wantReject {
				stream = rejStream
			}
			v, err := g.Check(h, stream)
			if err != nil {
				// A transport error is a tolerated degradation, never a
				// wrong verdict. (With 2 live backends and retries this
				// should be rare; log it.)
				t.Logf("session %d: degraded to error: %v", i, err)
				return
			}
			if v.Busy() {
				t.Logf("session %d: shed busy", i)
				return
			}
			var bad string
			if wantReject && (v.Code != scserve.VerdictReject || v.Symbol != rejIdx) {
				bad = fmt.Sprintf("session %d: verdict %s, want reject at %d", i, v, rejIdx)
			} else if !wantReject && v.Code != scserve.VerdictAccept {
				bad = fmt.Sprintf("session %d: verdict %s, want accept", i, v)
			}
			if bad != "" {
				mu.Lock()
				fatal = append(fatal, bad)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	<-killed
	for _, m := range fatal {
		t.Error(m)
	}
	if t.Failed() {
		t.Fatal("wrong verdicts through the grid — the invariant is broken")
	}
	st := g.Stats()
	var delivered int64
	for _, bs := range st.Backends {
		delivered += bs.Accepts + bs.Rejects
		if bs.InFlight != 0 {
			t.Errorf("backend %s leaked %d slots", bs.Addr, bs.InFlight)
		}
	}
	if delivered < sessions/2 {
		t.Fatalf("only %d/%d sessions delivered verdicts", delivered, sessions)
	}
	t.Logf("smoke: %d delivered, %d sheds, healthy=%d", delivered, st.Sheds, st.Healthy)
}

// TestGridEarlyVerdictStopsBuffering is the grid twin of the scserve
// test: a grid session keeps its whole stream, so without the rule that a
// verdict in hand stops the buffering, any tail past the replay cap would
// turn an early rejection into an error.
func TestGridEarlyVerdictStopsBuffering(t *testing.T) {
	for _, tokened := range []bool{false, true} {
		t.Run(fmt.Sprintf("tokened=%v", tokened), func(t *testing.T) {
			tb := startBackend(t, scserve.Config{AckInterval: 8})
			g := newTestGrid(t, Config{MaxBuffer: 8 << 10, PollEvery: 256}, tb)
			h := scserve.SyntheticHeader()
			if tokened {
				h.Token = scserve.NewToken()
			}
			s, err := g.Session(h)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			stream, rejIdx := scserve.SyntheticReject(40)
			wire := append(descriptor.Marshal(stream), descriptor.Marshal(scserve.SyntheticAccept(20000))...)
			for off := 0; off < len(wire); off += 512 {
				if err := s.SendBytes(wire[off:min(off+512, len(wire))]); err != nil {
					t.Fatalf("send after an early rejection: %v", err)
				}
			}
			v, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			off := int64(len(descriptor.Marshal(stream[:rejIdx])))
			if v.Code != scserve.VerdictReject || v.Symbol != rejIdx || v.Offset != off {
				t.Fatalf("verdict %s, want reject at symbol %d byte %d", v, rejIdx, off)
			}
		})
	}
}

// FuzzGridSession drives grid sessions, one-shot or tokened, through a
// fault link that cuts the first connections at a fuzzed byte count and
// then goes clean. Whatever the cut points, the delivered verdict must be
// exactly correct and no error may surface: faults cost retries only.
func FuzzGridSession(f *testing.F) {
	srv := scserve.New(scserve.Config{ReadTimeout: 5 * time.Second, AckInterval: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(ln)
	f.Cleanup(func() { ln.Close() })
	addr := ln.Addr().String()

	f.Add(int64(1), uint16(40), uint8(30), uint8(1), false)
	f.Add(int64(42), uint16(2000), uint8(200), uint8(2), true)
	f.Add(int64(7), uint16(0), uint8(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, resetAfter uint16, size, faulty uint8, tokened bool) {
		stream, rejIdx := scserve.SyntheticReject(int(size)%200 + 2)
		nFaulty := int64(faulty % 3)
		var dials atomic.Int64
		dial := func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) <= nFaulty {
				return faultnet.Wrap(conn, faultnet.Config{
					Seed:            seed,
					WriteChunk:      7,
					ResetAfterBytes: int64(resetAfter) + 1,
				}, nil), nil
			}
			return conn, nil
		}
		g, err := New([]string{addr}, Config{
			ProbeInterval: -1, Seed: seed, Timeout: 5 * time.Second, BaseDelay: time.Millisecond,
			MaxAttempts: 8, PollEvery: 1 << 10, Dial: dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		h := scserve.SyntheticHeader()
		if tokened {
			h.Token = scserve.NewToken()
		}
		v, err := g.Check(h, stream)
		if err != nil {
			t.Fatalf("faults must degrade to retries, not errors (seed=%d reset=%d faulty=%d tokened=%v): %v",
				seed, resetAfter, nFaulty, tokened, err)
		}
		off := int64(len(descriptor.Marshal(stream[:rejIdx])))
		if v.Code != scserve.VerdictReject || v.Symbol != rejIdx || v.Offset != off {
			t.Fatalf("wrong verdict through faults: %s, want reject at symbol %d byte %d", v, rejIdx, off)
		}
	})
}

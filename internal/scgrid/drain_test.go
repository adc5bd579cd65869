package scgrid

import (
	"net"
	"testing"
	"time"

	"scverify/internal/scserve"
)

// These tests pin the grid half of the live-operations contract: a
// draining backend's verdict is a redirect, not a failure — sessions
// move to an admitting backend without spending a retry attempt or a
// backoff sleep — while sessions with a live checkpoint stay put, since
// a draining backend keeps serving resumes until its in-flight work is
// done.

// server returns the backend's current scserve server handle, so tests
// can flip drain mode directly.
func (tb *testBackend) server() *scserve.Server {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.srv
}

// tokenPinnedTo draws resume tokens until one rendezvous-hashes to the
// given backend. With a healthy 2-backend pool each draw hits either
// side with probability ~1/2, so 1000 draws cannot miss.
func tokenPinnedTo(t *testing.T, g *Grid, tb *testBackend) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		tok := scserve.NewToken()
		if p := g.pool.pinned(tok); p != nil && p.addr == tb.addr {
			return tok
		}
	}
	t.Fatal("no token pinned to the target backend after 1000 draws")
	return ""
}

// TestGridDrainRedirect: a session whose pinned backend turns out to be
// draining must complete on another backend at zero retry cost. With
// MaxAttempts=1 any consumed attempt fails the session, and with a 30s
// BaseDelay any backoff sleep blows the elapsed budget — so passing
// proves the redirect is genuinely free.
func TestGridDrainRedirect(t *testing.T) {
	a := startBackend(t, scserve.Config{})
	b := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{
		MaxAttempts: 1,
		BaseDelay:   30 * time.Second,
		MaxDelay:    30 * time.Second,
	}, a, b)

	tok := tokenPinnedTo(t, g, a)
	a.server().Drain() // the pool has not probed: placement still trusts a

	h := scserve.SyntheticHeader()
	h.Token = tok
	s, err := g.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	if err := s.Send(scserve.SyntheticAccept(64)...); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatalf("drain redirect consumed the only attempt: %v", err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %s, want accept", v)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("redirect took %s — a backoff sleep was charged", elapsed)
	}

	st := g.Stats()
	if st.DrainRedirects < 1 {
		t.Errorf("drain redirects = %d, want >= 1", st.DrainRedirects)
	}
	if st.Draining != 1 {
		t.Errorf("draining backends = %d, want 1 (the verdict should have marked it)", st.Draining)
	}
	for _, bs := range st.Backends {
		switch bs.Addr {
		case a.addr:
			if !bs.Draining {
				t.Error("the draining backend was not marked from its verdict")
			}
			if bs.Accepts != 0 {
				t.Errorf("draining backend delivered %d accepts, want 0", bs.Accepts)
			}
		case b.addr:
			if bs.Accepts != 1 {
				t.Errorf("admitting backend delivered %d accepts, want 1", bs.Accepts)
			}
		}
	}
}

// TestGridProbeDrainDetection: the health probe doubles as the drain
// detector. A draining backend stays healthy (it is answering) but
// leaves the placement set — pinned tokens and p2c draws both avoid it —
// and rejoins the moment a probe sees it admitting again.
func TestGridProbeDrainDetection(t *testing.T) {
	a := startBackend(t, scserve.Config{})
	b := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{}, a, b)

	tok := tokenPinnedTo(t, g, a)
	a.server().Drain()
	g.ProbeNow()

	st := g.Stats()
	if st.Healthy != 2 {
		t.Fatalf("healthy = %d, want 2 — draining is not unhealthy", st.Healthy)
	}
	if st.Draining != 1 {
		t.Fatalf("draining = %d, want 1 after probing", st.Draining)
	}
	if p := g.pool.pinned(tok); p == nil || p.addr != b.addr {
		t.Fatalf("token pinned to %v, want the admitting backend %s", p, b.addr)
	}
	for i := 0; i < 20; i++ {
		bk, err := g.pool.tryAcquireP2C()
		if err != nil || bk == nil {
			t.Fatalf("p2c draw %d: %v, %v", i, bk, err)
		}
		if bk.addr == a.addr {
			t.Fatal("p2c placed a fresh session on the draining backend")
		}
		bk.release()
	}

	a.server().Undrain()
	g.ProbeNow()
	if st := g.Stats(); st.Draining != 0 {
		t.Fatalf("draining = %d after undrain probe, want 0", st.Draining)
	}
	if p := g.pool.pinned(tok); p == nil || p.addr != a.addr {
		t.Fatal("token did not map back to its rendezvous backend after undrain")
	}
}

// TestGridStickyResumeOnDrainingBackend: a session with a checkpoint on
// a backend that starts draining must, after a connection blip, resume
// there — not fail over and replay from byte zero — because draining
// backends serve resumes until their in-flight sessions conclude.
func TestGridStickyResumeOnDrainingBackend(t *testing.T) {
	a := startBackend(t, scserve.Config{AckInterval: 8})
	b := startBackend(t, scserve.Config{AckInterval: 8})
	g := newTestGrid(t, Config{PollEvery: 64}, a, b)

	stream, rejIdx := scserve.SyntheticReject(600)
	h := scserve.SyntheticHeader()
	h.Token = scserve.NewToken()
	s, err := g.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	half := len(stream) / 2
	if err := s.Send(stream[:half]...); err != nil {
		t.Fatal(err)
	}
	// Make sure a checkpoint exists before the blip: poll until the
	// server's ack moves the replay base.
	deadline := time.Now().Add(2 * time.Second)
	for s.r.Acked() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no ack after half the stream — cannot exercise sticky resume")
		}
		if err := s.r.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	home := s.Backend()
	var hometb *testBackend
	for _, tb := range []*testBackend{a, b} {
		if tb.addr == home {
			hometb = tb
		}
	}
	if hometb == nil {
		t.Fatalf("session reports backend %q, not in the pool", home)
	}

	// The home backend drains, the pool finds out, and the connection
	// blips — placement must still return to the checkpoint.
	hometb.server().Drain()
	g.ProbeNow()
	s.dropConn()

	if err := s.Send(stream[half:]...); err != nil {
		t.Fatal(err)
	}
	v, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != scserve.VerdictReject || v.Symbol != rejIdx {
		t.Fatalf("verdict %s, want reject at symbol %d", v, rejIdx)
	}

	for _, bs := range g.Stats().Backends {
		if bs.Addr == home {
			if bs.Resumes == 0 {
				t.Error("session never resumed on its draining home backend")
			}
			if bs.Rejects != 1 {
				t.Errorf("home backend rejects = %d, want 1", bs.Rejects)
			}
		} else if bs.Sessions != 0 {
			t.Errorf("session leaked onto %s despite a live checkpoint on the draining backend", bs.Addr)
		}
	}
}

// TestRetryClientDrainRedirectThroughProxy is the end-to-end regression
// for the satellite contract: an unmodified RetryClient pointed at a
// proxy, whose pinned backend is draining, lands on an admitting backend
// with no attempt or backoff penalty — the proxy observes the relayed
// draining verdict and steers the redial.
func TestRetryClientDrainRedirectThroughProxy(t *testing.T) {
	a := startBackend(t, scserve.Config{})
	b := startBackend(t, scserve.Config{})
	g := newTestGrid(t, Config{}, a, b)
	px := NewProxy(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go px.Serve(ln)
	t.Cleanup(px.Shutdown)

	tok := tokenPinnedTo(t, g, a)
	a.server().Drain()

	rc := scserve.NewRetryClient(ln.Addr().String(), scserve.RetryConfig{
		Timeout:     5 * time.Second,
		MaxAttempts: 1, // any consumed attempt fails the session
		BaseDelay:   30 * time.Second,
		MaxDelay:    30 * time.Second,
		Seed:        1,
	})
	defer rc.Close()

	h := scserve.SyntheticHeader()
	h.Token = tok
	start := time.Now()
	v, err := rc.Check(h, scserve.SyntheticAccept(64))
	if err != nil {
		t.Fatalf("drain redirect through the proxy consumed the only attempt: %v", err)
	}
	if v.Code != scserve.VerdictAccept {
		t.Fatalf("verdict %s, want accept", v)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("redirect took %s — a backoff sleep was charged", elapsed)
	}

	for _, bs := range g.Stats().Backends {
		switch bs.Addr {
		case a.addr:
			if !bs.Draining {
				t.Error("proxy never observed the relayed draining verdict")
			}
			if bs.Accepts != 0 {
				t.Errorf("draining backend delivered %d accepts, want 0", bs.Accepts)
			}
		case b.addr:
			if bs.Accepts != 1 {
				t.Errorf("admitting backend delivered %d accepts, want 1", bs.Accepts)
			}
		}
	}
}

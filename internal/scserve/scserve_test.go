package scserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// startServer runs a server on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil && err != ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// offsetOf returns the byte offset of symbol idx in the stream's wire
// encoding.
func offsetOf(s descriptor.Stream, idx int) int64 {
	return int64(len(descriptor.Marshal(s[:idx])))
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialTimeout(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSessionVerdicts(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialT(t, addr)
	h := SyntheticHeader()

	t.Run("accept", func(t *testing.T) {
		v, err := c.Check(h, SyntheticAccept(30))
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictAccept {
			t.Fatalf("verdict %v, want accept", v)
		}
	})

	t.Run("reject position", func(t *testing.T) {
		s, idx := SyntheticReject(12)
		v, err := c.Check(h, s)
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictReject {
			t.Fatalf("verdict %v, want reject", v)
		}
		if v.Symbol != idx || v.Offset != offsetOf(s, idx) {
			t.Fatalf("rejected at symbol %d byte %d, want symbol %d byte %d: %s",
				v.Symbol, v.Offset, idx, offsetOf(s, idx), v.Msg)
		}
		// The witness extension classifies the rejection over the wire:
		// SyntheticReject closes a two-node cycle.
		if v.Constraint != int(checker.ConstraintCycle) || v.CycleLen != 2 {
			t.Fatalf("witness fields constraint=%d cyclelen=%d, want cycle of 2: %s",
				v.Constraint, v.CycleLen, v)
		}
	})

	t.Run("finish-time reject", func(t *testing.T) {
		// A lone load that never inherits: accepted symbol by symbol,
		// rejected by the end-of-stream constraint-4 check.
		ld := trace.LD(1, 1, 1)
		s := descriptor.Stream{descriptor.Node{ID: 1, Op: &ld}}
		v, err := c.Check(h, s)
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictReject || v.Symbol != len(s) {
			t.Fatalf("verdict %v, want reject at end-of-stream symbol %d", v, len(s))
		}
		if v.Constraint != int(checker.Constraint4) || v.CycleLen != 0 {
			t.Fatalf("witness fields constraint=%d cyclelen=%d, want constraint 4: %s",
				v.Constraint, v.CycleLen, v)
		}
	})

	t.Run("undecodable bytes", func(t *testing.T) {
		sess, err := c.Session(h)
		if err != nil {
			t.Fatal(err)
		}
		good := descriptor.Marshal(SyntheticAccept(6))
		if err := sess.SendBytes(append(good, 0xee)); err != nil {
			t.Fatal(err)
		}
		v, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictProtocolError {
			t.Fatalf("verdict %v, want protocol-error", v)
		}
		if v.Symbol != 6 || v.Offset != int64(len(good)) {
			t.Fatalf("error at symbol %d byte %d, want symbol 6 byte %d", v.Symbol, v.Offset, len(good))
		}
	})

	t.Run("truncated mid-symbol at end", func(t *testing.T) {
		sess, err := c.Session(h)
		if err != nil {
			t.Fatal(err)
		}
		full := descriptor.Marshal(SyntheticAccept(6))
		if err := sess.SendBytes(full[:len(full)-1]); err != nil {
			t.Fatal(err)
		}
		v, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictProtocolError || v.Symbol != 5 {
			t.Fatalf("verdict %v, want positioned protocol-error at symbol 5", v)
		}
	})

	t.Run("connection reuse after verdicts", func(t *testing.T) {
		// All of the above ran on one connection; one more accept proves
		// the connection survived every verdict class.
		v, err := c.Check(h, SyntheticAccept(3))
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictAccept {
			t.Fatalf("verdict %v, want accept", v)
		}
	})
}

// TestFramesSplitMidSymbol streams a session one byte per frame: symbol
// decoding must span frame payloads transparently.
func TestFramesSplitMidSymbol(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialT(t, addr)
	s, idx := SyntheticReject(4)
	wire := descriptor.Marshal(s)
	sess, err := c.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range wire {
		if err := sess.SendBytes([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != idx || v.Offset != offsetOf(s, idx) {
		t.Fatalf("verdict %v, want reject at symbol %d byte %d", v, idx, offsetOf(s, idx))
	}
}

// TestEarlyRejectBackpressure keeps streaming long past a rejection: the
// server must deliver the early verdict, discard the rest without
// buffering it, and keep the connection usable.
func TestEarlyRejectBackpressure(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialT(t, addr)
	s, idx := SyntheticReject(0)
	sess, err := c.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(s...); err != nil {
		t.Fatal(err)
	}
	// Megabytes of post-rejection garbage symbols; server must not buffer
	// them nor break the session.
	filler := descriptor.Marshal(SyntheticAccept(60000))
	for i := 0; i < 8; i++ {
		if err := sess.SendBytes(filler); err != nil {
			t.Fatal(err)
		}
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != idx {
		t.Fatalf("verdict %v, want reject at symbol %d", v, idx)
	}
	// The connection is still good for another session.
	if v, err := c.Check(SyntheticHeader(), SyntheticAccept(3)); err != nil || v.Code != VerdictAccept {
		t.Fatalf("follow-up session: %v / %v", v, err)
	}
}

// TestServerConcurrentSessions is the acceptance smoke test: ≥64 concurrent
// sessions under -race, mixed accept/reject streams, every verdict correct
// including rejection positions, followed by a clean shutdown.
func TestServerConcurrentSessions(t *testing.T) {
	srv, addr := startServer(t, Config{MaxSessions: 128})
	const clients = 64
	const rounds = 3

	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := DialTimeout(addr, 30*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				if (ci+r)%2 == 0 {
					n := 3 + (ci*7+r*13)%200
					v, err := c.Check(SyntheticHeader(), SyntheticAccept(n))
					if err != nil {
						errs <- fmt.Errorf("client %d round %d: %w", ci, r, err)
						return
					}
					if v.Code != VerdictAccept {
						errs <- fmt.Errorf("client %d round %d: accept stream got %v", ci, r, v)
						return
					}
				} else {
					s, idx := SyntheticReject((ci*5 + r*11) % 150)
					v, err := c.Check(SyntheticHeader(), s)
					if err != nil {
						errs <- fmt.Errorf("client %d round %d: %w", ci, r, err)
						return
					}
					if v.Code != VerdictReject || v.Symbol != idx || v.Offset != offsetOf(s, idx) {
						errs <- fmt.Errorf("client %d round %d: reject stream got %v, want symbol %d byte %d",
							ci, r, v, idx, offsetOf(s, idx))
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.SessionsTotal != clients*rounds {
		t.Errorf("sessions_total = %d, want %d", st.SessionsTotal, clients*rounds)
	}
	if st.Accepts+st.Rejects != clients*rounds || st.ProtocolErrors != 0 || st.SessionsAborted != 0 {
		t.Errorf("verdict counters off: %+v", st)
	}
}

// TestGracefulShutdown opens sessions, parks them mid-stream, begins
// Shutdown, and then completes the sessions: every in-flight verdict must
// be delivered (none dropped), and Shutdown must return only after they
// are.
func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const n = 16
	type half struct {
		sess *Session
		rest descriptor.Stream
	}
	clients := make([]*Client, n)
	halves := make([]half, n)
	stream := SyntheticAccept(40)
	for i := 0; i < n; i++ {
		c, err := DialTimeout(ln.Addr().String(), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		sess, err := c.Session(SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(stream[:20]...); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		halves[i] = half{sess: sess, rest: stream[20:]}
	}
	// Wait until the server has all n sessions in flight.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().SessionsActive != n {
		if time.Now().After(deadline) {
			t.Fatalf("sessions active = %d, want %d", srv.Stats().SessionsActive, n)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New connections must be refused while draining.
	time.Sleep(20 * time.Millisecond)
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Error("dial succeeded during drain")
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with %d sessions in flight", err, n)
	default:
	}

	// Complete every in-flight session; each must still get its verdict.
	for i, h := range halves {
		if err := h.sess.Send(h.rest...); err != nil {
			t.Fatalf("session %d: send: %v", i, err)
		}
		v, err := h.sess.Finish()
		if err != nil {
			t.Fatalf("session %d: finish: %v", i, err)
		}
		if v.Code != VerdictAccept {
			t.Fatalf("session %d: verdict %v, want accept", i, v)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	st := srv.Stats()
	if st.Accepts != n || st.SessionsAborted != 0 {
		t.Fatalf("post-shutdown stats %+v, want %d accepts and no aborts", st, n)
	}
}

// TestShutdownDeadlineForceCloses: a session that never completes cannot
// hold Shutdown hostage past its context.
func TestShutdownDeadlineForceCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := DialTimeout(ln.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(SyntheticAccept(3)...); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	for srv.Stats().SessionsActive != 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	<-serveDone
	if st := srv.Stats(); st.SessionsAborted != 1 {
		t.Fatalf("aborted = %d, want 1", st.SessionsAborted)
	}
}

func TestServerLimits(t *testing.T) {
	t.Run("max k", func(t *testing.T) {
		_, addr := startServer(t, Config{MaxK: 8})
		c := dialT(t, addr)
		_, err := c.Session(Header{K: 9})
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.open.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != VerdictProtocolError {
			t.Fatalf("verdict %v, want protocol-error for k over limit", v)
		}
	})

	t.Run("session capacity", func(t *testing.T) {
		srv, addr := startServer(t, Config{MaxSessions: 1})
		c1 := dialT(t, addr)
		sess, err := c1.Session(SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(SyntheticAccept(3)...); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		for srv.Stats().SessionsActive != 1 {
			time.Sleep(time.Millisecond)
		}
		c2 := dialT(t, addr)
		sess2, err := c2.Session(SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		v2, err := sess2.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if v2.Code != VerdictProtocolError {
			t.Fatalf("second session verdict %v, want capacity protocol-error", v2)
		}
		if v1, err := sess.Finish(); err != nil || v1.Code != VerdictAccept {
			t.Fatalf("first session: %v / %v", v1, err)
		}
	})

	t.Run("oversized frame", func(t *testing.T) {
		_, addr := startServer(t, Config{MaxFrame: 64})
		c := dialT(t, addr)
		sess, err := c.Session(SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendBytes(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Finish(); err == nil {
			t.Fatal("oversized frame: session finished normally, want connection error")
		}
	})

	t.Run("read timeout", func(t *testing.T) {
		srv, addr := startServer(t, Config{ReadTimeout: 50 * time.Millisecond})
		c := dialT(t, addr)
		sess, err := c.Session(SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().SessionsAborted == 0 {
			if time.Now().After(deadline) {
				t.Fatal("idle session never timed out")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestVerdictWireCompat pins the witness extension's wire compatibility:
// pre-extension payloads parse with zero witness fields, witness-free
// verdicts encode byte-identically to the pre-extension format, and
// extended verdicts survive a lossless round trip.
func TestVerdictWireCompat(t *testing.T) {
	legacy := binary.AppendUvarint(nil, uint64(VerdictReject))
	legacy = binary.AppendUvarint(legacy, uint64(4))  // symbol 3
	legacy = binary.AppendUvarint(legacy, uint64(18)) // offset 17
	legacy = append(legacy, "old peer"...)
	v, err := parseVerdict(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if v.Constraint != 0 || v.CycleLen != 0 || v.Symbol != 3 || v.Msg != "old peer" {
		t.Fatalf("legacy payload parsed as %+v", v)
	}
	if got := appendVerdict(nil, v); !bytes.Equal(got, legacy) {
		t.Fatalf("witness-free verdict re-encodes as %x, want legacy bytes %x", got, legacy)
	}

	want := Verdict{Code: VerdictReject, Symbol: 3, Offset: 17,
		Constraint: int(checker.ConstraintCycle), CycleLen: 5, Msg: "loop"}
	back, err := parseVerdict(appendVerdict(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if back != want {
		t.Fatalf("extended round trip %+v, want %+v", back, want)
	}

	// A witness extension with an out-of-range constraint code is rejected
	// rather than silently misclassified.
	bad := binary.AppendUvarint(nil, uint64(VerdictReject)|verdictFlagWitness)
	bad = binary.AppendUvarint(bad, 0)   // symbol n/a
	bad = binary.AppendUvarint(bad, 0)   // offset n/a
	bad = binary.AppendUvarint(bad, 200) // constraint code out of range
	bad = binary.AppendUvarint(bad, 1)
	if _, err := parseVerdict(bad); err == nil {
		t.Fatal("out-of-range constraint code accepted")
	}
}

func TestStatsFrame(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialT(t, addr)
	for i := 0; i < 3; i++ {
		if v, err := c.Check(SyntheticHeader(), SyntheticAccept(9)); err != nil || v.Code != VerdictAccept {
			t.Fatalf("session %d: %v / %v", i, v, err)
		}
	}
	s, _ := SyntheticReject(2)
	if v, err := c.Check(SyntheticHeader(), s); err != nil || v.Code != VerdictReject {
		t.Fatalf("reject session: %v / %v", v, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsTotal != 4 || st.Accepts != 3 || st.Rejects != 1 {
		t.Fatalf("stats %+v, want 4 sessions, 3 accepts, 1 reject", st)
	}
	if st.SymbolsTotal == 0 || st.UptimeSeconds <= 0 {
		t.Fatalf("stats %+v missing symbol/uptime counters", st)
	}
}

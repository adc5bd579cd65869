package scserve

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/faultnet"
)

// TestClientPerOpDeadlines is the regression test for the old
// whole-connection deadline: a session whose total wall time far exceeds
// the client timeout must succeed as long as every individual operation
// makes progress within it.
func TestClientPerOpDeadlines(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := DialTimeout(addr, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stream := SyntheticAccept(64)
	sess, err := c.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	// Spread the stream over ~600ms — four timeouts' worth of wall time.
	part := (len(stream) + 7) / 8
	for i := 0; i < 8; i++ {
		lo, hi := i*part, (i+1)*part
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := sess.Send(stream[lo:hi]...); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		time.Sleep(75 * time.Millisecond)
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatalf("session spuriously timed out: %v", err)
	}
	if v.Code != VerdictAccept {
		t.Fatalf("verdict %v, want accept", v)
	}
}

// countConn counts payload bytes written through a connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// TestRetryClientResumes: the first connection is cut mid-stream by fault
// injection; the RetryClient must reconnect, resume from the server's
// checkpoint, replay only the unacked tail, and still deliver the exact
// verdict with stream-absolute positions.
func TestRetryClientResumes(t *testing.T) {
	srv, addr := startServer(t, Config{AckInterval: 64})
	stream, rejectIdx := SyntheticReject(5000)
	wire := descriptor.Marshal(stream)

	var dials atomic.Int64
	var conn2Bytes atomic.Int64
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		switch dials.Add(1) {
		case 1:
			// First connection dies deterministically mid-stream.
			return faultnet.Wrap(conn, faultnet.Config{Seed: 42, ResetAfterBytes: int64(len(wire)) * 3 / 4}, nil), nil
		default:
			return countConn{Conn: conn, n: &conn2Bytes}, nil
		}
	}
	rc := NewRetryClient(addr, RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: time.Millisecond, Seed: 1,
		PollEvery: 2 << 10, Dial: dial,
	})
	defer rc.Close()

	sess, err := rc.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendBytes(wire); err != nil {
		t.Fatal(err)
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != rejectIdx || v.Offset != offsetOf(stream, rejectIdx) {
		t.Fatalf("verdict %v, want reject at symbol %d byte %d", v, rejectIdx, offsetOf(stream, rejectIdx))
	}
	if dials.Load() < 2 {
		t.Fatalf("dials = %d, want at least 2 (a reset was injected)", dials.Load())
	}
	if got := srv.Stats().Resumes; got < 1 {
		t.Fatalf("server resumes = %d, want >= 1", got)
	}
	// The point of resumption: the second connection must NOT have
	// replayed the whole stream.
	if got := conn2Bytes.Load(); got >= int64(len(wire)) {
		t.Fatalf("second connection carried %d bytes — a full replay of the %d-byte stream", got, len(wire))
	}
	if sess.Acked() <= 0 {
		t.Fatalf("client never advanced past an ack (base=%d)", sess.Acked())
	}
}

// TestRetryClientBusy: a busy verdict is retried with backoff until a
// session slot frees up, and the eventual verdict is genuine.
func TestRetryClientBusy(t *testing.T) {
	srv, addr := startServer(t, Config{MaxSessions: 1})

	// Occupy the only slot.
	c1 := dialT(t, addr)
	s1, err := c1.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Send(SyntheticAccept(20)...); err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	waitActive(t, srv, 1)

	// Free the slot shortly after the retry client first bounces.
	release := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		if v, err := s1.Finish(); err != nil || v.Code != VerdictAccept {
			t.Errorf("occupier finish: %v, %v", v, err)
		}
		close(release)
	}()

	rc := NewRetryClient(addr, RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: 25 * time.Millisecond, MaxAttempts: 10, Seed: 1,
	})
	defer rc.Close()
	v, err := rc.Check(SyntheticHeader(), SyntheticAccept(30))
	if err != nil {
		t.Fatalf("retry across busy failed: %v", err)
	}
	if v.Code != VerdictAccept {
		t.Fatalf("verdict %v, want accept", v)
	}
	<-release
	if srv.Stats().Busy < 1 {
		t.Fatalf("busy counter = %d, want >= 1", srv.Stats().Busy)
	}
}

// TestRetryClientGivesUp: with no server at all, the retry budget is
// spent and a clean error comes back — bounded, not infinite, retrying.
func TestRetryClientGivesUp(t *testing.T) {
	// Grab an address that is then closed again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := NewRetryClient(addr, RetryConfig{
		Timeout: time.Second, MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1,
	})
	defer rc.Close()
	start := time.Now()
	if _, err := rc.Check(SyntheticHeader(), SyntheticAccept(10)); err == nil {
		t.Fatal("expected an error with no server listening")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up after %v — backoff not bounded", elapsed)
	}
}

// TestRetryBufferLimit: the replay buffer cap fails the session cleanly
// when the server never acks (no token checkpointing server-side would
// ack, but here the buffer cap is simply tiny).
func TestRetryBufferLimit(t *testing.T) {
	_, addr := startServer(t, Config{AckInterval: 1 << 30}) // never checkpoint
	rc := NewRetryClient(addr, RetryConfig{
		Timeout: 2 * time.Second, BaseDelay: time.Millisecond, Seed: 1,
		MaxBuffer: 1 << 10,
	})
	defer rc.Close()
	sess, err := rc.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	wire := descriptor.Marshal(SyntheticAccept(2000))
	for off := 0; off < len(wire); off += 512 {
		end := off + 512
		if end > len(wire) {
			end = len(wire)
		}
		if sendErr = sess.SendBytes(wire[off:end]); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("unacked tail exceeded MaxBuffer without an error")
	}
}

// sendChunked streams wire through send in 512-byte calls.
func sendChunked(wire []byte, send func([]byte) error) error {
	for off := 0; off < len(wire); off += 512 {
		if err := send(wire[off:min(off+512, len(wire))]); err != nil {
			return err
		}
	}
	return nil
}

// TestEarlyVerdictStopsBuffering: once an early rejection is in hand the
// stream is decided, so bytes the caller keeps sending are dropped rather
// than buffered behind a session that no longer acks — a long tail after
// the rejection must not turn the verdict into a replay-buffer error.
func TestEarlyVerdictStopsBuffering(t *testing.T) {
	_, addr := startServer(t, Config{AckInterval: 8})
	rc := NewRetryClient(addr, RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: time.Millisecond, Seed: 1,
		MaxBuffer: 8 << 10, PollEvery: 256,
	})
	defer rc.Close()
	stream, rejectIdx := SyntheticReject(40)
	wire := append(descriptor.Marshal(stream), descriptor.Marshal(SyntheticAccept(20000))...)

	sess, err := rc.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := sendChunked(wire, sess.SendBytes); err != nil {
		t.Fatalf("send after an early rejection: %v", err)
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != rejectIdx || v.Offset != offsetOf(stream, rejectIdx) {
		t.Fatalf("verdict %v, want reject at symbol %d byte %d", v, rejectIdx, offsetOf(stream, rejectIdx))
	}
}

// TestRetryBusyWhileStreaming: a busy answer seen by a mid-stream poll
// restarts the session as soon as the slot frees, instead of buffering
// the rest of a stream longer than the replay buffer until Finish.
func TestRetryBusyWhileStreaming(t *testing.T) {
	srv, addr := startServer(t, Config{MaxSessions: 1, AckInterval: 8})

	c1 := dialT(t, addr)
	s1, err := c1.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Send(SyntheticAccept(20)...); err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	waitActive(t, srv, 1)
	release := make(chan struct{})
	go func() {
		defer close(release)
		time.Sleep(50 * time.Millisecond)
		if v, err := s1.Finish(); err != nil || v.Code != VerdictAccept {
			t.Errorf("occupier finish: %v, %v", v, err)
		}
	}()

	rc := NewRetryClient(addr, RetryConfig{
		Timeout: 5 * time.Second, BaseDelay: 5 * time.Millisecond, MaxAttempts: 10, Seed: 1,
		MaxBuffer: 8 << 10, PollEvery: 256,
	})
	defer rc.Close()
	sess, err := rc.Session(SyntheticHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := sendChunked(descriptor.Marshal(SyntheticAccept(20000)), sess.SendBytes); err != nil {
		t.Fatalf("send across a busy answer: %v", err)
	}
	v, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictAccept {
		t.Fatalf("verdict %v, want accept", v)
	}
	<-release
	if got := srv.Stats().Busy; got < 1 {
		t.Fatalf("busy counter = %d, want >= 1", got)
	}
}

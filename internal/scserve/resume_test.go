package scserve

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"scverify/internal/descriptor"
)

// TestHelloWireCompat pins the hello encoding: legacy headers (no token)
// must encode byte-identically to the pre-resume format, and the new
// token/resume fields must round-trip.
func TestHelloWireCompat(t *testing.T) {
	legacy := SyntheticHeader()
	// The pre-resume encoding: version, k, p, b, v, flags — all uvarints.
	want := []byte{1, SyntheticK, 1, 1, 2, 0}
	if got := appendHello(nil, legacy); !bytes.Equal(got, want) {
		t.Fatalf("legacy hello encodes as %v, want %v", got, want)
	}

	cases := []Header{
		legacy,
		{K: 5, NoValues: true},
		{K: 5, Token: "tok"},
		{K: 5, Token: "tok", Resume: true},
		{K: 5, Token: "tok", Resume: true, AckSymbol: 1000, AckOffset: 123456},
		{K: 5, NoValues: true, Token: string(bytes.Repeat([]byte{'x'}, maxTokenLen)), Resume: true, AckSymbol: 1, AckOffset: 1},
	}
	for _, h := range cases {
		back, err := parseHello(appendHello(nil, h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if back != h {
			t.Fatalf("round trip: got %+v, want %+v", back, h)
		}
	}

	// Resume positions are dropped (not encoded) without the resume flag.
	h := Header{K: 5, Token: "tok", AckSymbol: 9, AckOffset: 9}
	back, err := parseHello(appendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if back.AckSymbol != 0 || back.AckOffset != 0 {
		t.Fatalf("non-resume hello carried ack position: %+v", back)
	}

	bad := [][]byte{
		appendHello(nil, Header{K: 5, Token: string(bytes.Repeat([]byte{'x'}, maxTokenLen+1))}),
		{1, 5, 0, 0, 0, helloFlagResume},                             // resume without token
		{1, 5, 0, 0, 0, helloFlagToken},                              // flag without token bytes
		{1, 5, 0, 0, 0, helloFlagToken, 3, 'a'},                      // truncated token
		{1, 5, 0, 0, 0, helloFlagToken, 0},                           // empty token
		append(appendHello(nil, Header{K: 5}), 0),                    // trailing byte
		{1, 5, 0, 0, 0, helloFlagToken | helloFlagResume, 1, 'a', 7}, // missing ack offset
	}
	for i, payload := range bad {
		if _, err := parseHello(payload); err == nil {
			t.Errorf("bad hello %d parsed without error", i)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, c := range []struct {
		sym int
		off int64
	}{{0, 0}, {1, 1}, {1024, 4096}, {1 << 30, 1 << 40}} {
		sym, off, err := parseAck(appendAck(nil, c.sym, c.off))
		if err != nil {
			t.Fatal(err)
		}
		if sym != c.sym || off != c.off {
			t.Fatalf("got (%d, %d), want (%d, %d)", sym, off, c.sym, c.off)
		}
	}
	for i, payload := range [][]byte{{}, {5}, append(appendAck(nil, 1, 2), 0)} {
		if _, _, err := parseAck(payload); err == nil {
			t.Errorf("bad ack %d parsed without error", i)
		}
	}
}

// tokenHeader is SyntheticHeader with a resume token.
func tokenHeader(token string) Header {
	h := SyntheticHeader()
	h.Token = token
	return h
}

// waitForAck nudges the server with empty symbol frames until the session
// observes its first ack. Acks ride between frame reads on the server's
// conn loop, so a client that stops sending stops receiving them — an
// empty symbols frame is the protocol's keepalive.
func waitForAck(t *testing.T, sess *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sess.SendBytes(nil); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, off := sess.Acked(); off > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no ack within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointResume exercises the full resume path: stream half a
// session, kill the connection, resume with a second one, and check that
// the verdict is correct with stream-absolute positions and that only the
// unacked tail needed replaying.
func TestCheckpointResume(t *testing.T) {
	srv, addr := startServer(t, Config{AckInterval: 8})
	stream, rejectIdx := SyntheticReject(100)
	wire := descriptor.Marshal(stream)
	first := wire[:offsetOf(stream, 50)]

	c1 := dialT(t, addr)
	sess, err := c1.Session(tokenHeader("resume-test"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendBytes(first); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForAck(t, sess)
	ackSym, ackOff := sess.Acked()
	c1.Close() // drop mid-session: the server aborts, the checkpoint stays

	c2 := dialT(t, addr)
	h := tokenHeader("resume-test")
	h.Resume, h.AckSymbol, h.AckOffset = true, ackSym, ackOff
	sess2, err := c2.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	rsym, roff := sess2.Acked()
	if roff < ackOff {
		t.Fatalf("resume ack (%d, %d) behind client position (%d, %d)", rsym, roff, ackSym, ackOff)
	}
	if roff <= 0 || roff >= int64(len(wire)) {
		t.Fatalf("resume offset %d outside the stream (0, %d)", roff, len(wire))
	}
	// Replay only from the server's checkpoint.
	if err := sess2.SendBytes(wire[roff:]); err != nil {
		t.Fatal(err)
	}
	v, err := sess2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != VerdictReject || v.Symbol != rejectIdx || v.Offset != offsetOf(stream, rejectIdx) {
		t.Fatalf("resumed verdict %v, want reject at symbol %d byte %d", v, rejectIdx, offsetOf(stream, rejectIdx))
	}
	st := srv.Stats()
	if st.Resumes != 1 {
		t.Fatalf("server resumes = %d, want 1", st.Resumes)
	}
	if st.SessionsAborted != 1 {
		t.Fatalf("server aborts = %d, want 1", st.SessionsAborted)
	}
}

// TestResumeUnknownToken: resuming a token the server has never seen (or
// has evicted) degrades to a clean protocol-error verdict.
func TestResumeUnknownToken(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dialT(t, addr)
	h := tokenHeader("never-seen")
	h.Resume, h.AckSymbol, h.AckOffset = true, 10, 100
	sess, err := c.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	if sess.early == nil || sess.early.Code != VerdictProtocolError {
		t.Fatalf("early verdict = %v, want protocol error", sess.early)
	}
	if srv.Stats().ResumeMisses != 1 {
		t.Fatalf("resume misses = %d, want 1", srv.Stats().ResumeMisses)
	}
}

// TestResumeHeaderMismatch: a resume whose header disagrees with the
// checkpointed session (different k) is rejected cleanly.
func TestResumeHeaderMismatch(t *testing.T) {
	_, addr := startServer(t, Config{AckInterval: 4})
	stream := SyntheticAccept(40)
	wire := descriptor.Marshal(stream)

	c1 := dialT(t, addr)
	sess, err := c1.Session(tokenHeader("mismatch"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendBytes(wire[:len(wire)/2]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForAck(t, sess)
	c1.Close()

	c2 := dialT(t, addr)
	h := tokenHeader("mismatch")
	h.K++ // different checker shape
	h.Resume = true
	sess2, err := c2.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.early == nil || sess2.early.Code != VerdictProtocolError {
		t.Fatalf("early verdict = %v, want protocol error", sess2.early)
	}
}

// TestResumeVerdictReplay: a session that completed at the server but
// whose client missed the verdict gets the stored verdict replayed on
// resume, without re-checking.
func TestResumeVerdictReplay(t *testing.T) {
	srv, addr := startServer(t, Config{AckInterval: 8})
	stream := SyntheticAccept(64)
	wire := descriptor.Marshal(stream)

	c1 := dialT(t, addr)
	v1, err := c1.Check(tokenHeader("replay"), stream)
	if err != nil || v1.Code != VerdictAccept {
		t.Fatalf("first pass: %v, %v", v1, err)
	}

	// Pretend the verdict was lost: resume the completed session. The
	// handshake ack names the server's final checkpoint; the client
	// replays from there (possibly nothing) and gets the stored verdict.
	c2 := dialT(t, addr)
	h := tokenHeader("replay")
	h.Resume = true
	sess2, err := c2.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	_, roff := sess2.Acked()
	if roff < 0 || roff > int64(len(wire)) {
		t.Fatalf("replay handshake ack offset %d outside [0, %d]", roff, len(wire))
	}
	if err := sess2.SendBytes(wire[roff:]); err != nil {
		t.Fatal(err)
	}
	v2, err := sess2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Fatalf("replayed verdict %v differs from original %v", v2, v1)
	}
	if srv.Stats().ResumeReplays != 1 {
		t.Fatalf("resume replays = %d, want 1", srv.Stats().ResumeReplays)
	}
}

// TestResumeEviction: the checkpoint store's entry cap evicts the least
// recently touched token, which then resumes as unknown.
func TestResumeEviction(t *testing.T) {
	_, addr := startServer(t, Config{AckInterval: 4, ResumeMaxSessions: 1})
	stream := SyntheticAccept(40)
	wire := descriptor.Marshal(stream)

	open := func(token string) {
		c := dialT(t, addr)
		sess, err := c.Session(tokenHeader(token))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendBytes(wire[:len(wire)/2]); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		waitForAck(t, sess)
		c.Close()
	}
	open("first")
	open("second") // evicts "first"

	c := dialT(t, addr)
	h := tokenHeader("first")
	h.Resume = true
	sess, err := c.Session(h)
	if err != nil {
		t.Fatal(err)
	}
	if sess.early == nil || sess.early.Code != VerdictProtocolError {
		t.Fatalf("evicted token resumed: %v", sess.early)
	}
}

// TestBusyKeepsConnection: a session rejected for capacity gets a clean
// busy verdict and the connection stays usable for a later session.
func TestBusyKeepsConnection(t *testing.T) {
	srv, addr := startServer(t, Config{MaxSessions: 1, AckInterval: 8})

	// Occupy the only slot with an unfinished session.
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

	c2 := dialT(t, addr)
	v, err := c2.Check(SyntheticHeader(), SyntheticAccept(10))
	if err != nil {
		t.Fatalf("busy session errored at transport level: %v", err)
	}
	if !v.Busy() {
		t.Fatalf("verdict %v, want busy", v)
	}

	// Free the slot; the SAME rejected connection must now work.
	if v, err := s1.Finish(); err != nil || v.Code != VerdictAccept {
		t.Fatalf("occupier finish: %v, %v", v, err)
	}
	waitActive(t, srv, 0)
	v2, err := c2.Check(SyntheticHeader(), SyntheticAccept(10))
	if err != nil {
		t.Fatalf("connection did not survive the busy verdict: %v", err)
	}
	if v2.Code != VerdictAccept {
		t.Fatalf("post-busy verdict %v, want accept", v2)
	}
	if srv.Stats().Busy != 1 {
		t.Fatalf("busy counter = %d, want 1", srv.Stats().Busy)
	}
}

// waitActive blocks until the server's active-session gauge reaches n.
func waitActive(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessionsActive.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("sessions active = %d, want %d", srv.sessionsActive.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLegacyClientNoAcks drives a raw legacy session (no token) over the
// wire and asserts the server's reply contains nothing but the verdict:
// pre-resume clients interoperate byte-identically.
func TestLegacyClientNoAcks(t *testing.T) {
	_, addr := startServer(t, Config{AckInterval: 2})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	bw := bufio.NewWriter(conn)
	writeFrame(bw, frameHello, appendHello(nil, SyntheticHeader()))
	writeFrame(bw, frameSymbols, descriptor.Marshal(SyntheticAccept(50)))
	writeFrame(bw, frameEnd, nil)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	typ, payload, err := readFrame(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameVerdict {
		t.Fatalf("first reply frame is %#x, want verdict", typ)
	}
	v, err := parseVerdict(payload)
	if err != nil || v.Code != VerdictAccept {
		t.Fatalf("verdict %v, %v", v, err)
	}
}

package scserve

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
)

// waitStats polls the server's counters until cond holds.
func waitStats(t *testing.T, srv *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s (stats %+v)", what, srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// pollEarly sends keepalives (empty symbols frames) until the session's
// early verdict arrives: each one is a client frame the server may answer.
func pollEarly(t *testing.T, sess *Session) Verdict {
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
		if v, ok := sess.Early(); ok {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatal("keepalives drew no early verdict within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneVerdictPerSession pins the protocol's one verdict frame per
// session once the verdict is out before the end frame: keepalives
// deliver a pending early rejection, and a frame with no place in the
// session — after an early rejection, or after a resumed session's stored
// verdict — closes the connection without drawing a second verdict.
func TestOneVerdictPerSession(t *testing.T) {
	misplacedHello := func(t *testing.T, c *Client) {
		t.Helper()
		if err := writeFrame(c.bw, frameHello, appendHello(nil, SyntheticHeader())); err != nil {
			t.Fatal(err)
		}
		if err := c.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if typ, payload, err := readFrame(c.br, 1<<20); err != io.EOF {
			t.Fatalf("misplaced hello answered by frame %#x %q (err %v), want the connection closed", typ, payload, err)
		}
	}

	t.Run("early reject", func(t *testing.T) {
		srv, addr := startServer(t, Config{})
		c := dialT(t, addr)
		stream, idx := SyntheticReject(10)
		sess, err := c.Session(SyntheticHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(stream...); err != nil {
			t.Fatal(err)
		}
		if v := pollEarly(t, sess); v.Code != VerdictReject || v.Symbol != idx {
			t.Fatalf("early verdict %v, want reject at symbol %d", v, idx)
		}
		misplacedHello(t, c)
		if st := srv.Stats(); st.Rejects != 1 || st.ProtocolErrors != 0 || st.SessionsAborted != 0 {
			t.Fatalf("rejects/protocol errors/aborts = %d/%d/%d, want 1/0/0",
				st.Rejects, st.ProtocolErrors, st.SessionsAborted)
		}
	})

	t.Run("replayed verdict", func(t *testing.T) {
		srv, addr := startServer(t, Config{AckInterval: 8})
		c := dialT(t, addr)
		stream, _ := SyntheticReject(20)
		first, err := c.Check(tokenHeader("one-verdict"), stream)
		if err != nil || first.Code != VerdictReject {
			t.Fatalf("first pass: %v, %v", first, err)
		}
		h := tokenHeader("one-verdict")
		h.Resume = true
		sess, err := c.Session(h)
		if err != nil {
			t.Fatal(err)
		}
		if v := pollEarly(t, sess); v != first {
			t.Fatalf("replayed verdict %v, want %v", v, first)
		}
		misplacedHello(t, c)
		if st := srv.Stats(); st.ResumeReplays != 1 || st.Rejects != 1 || st.ProtocolErrors != 0 {
			t.Fatalf("replays/rejects/protocol errors = %d/%d/%d, want 1/1/0",
				st.ResumeReplays, st.Rejects, st.ProtocolErrors)
		}
	})
}

// TestHangUpIsNotAVerdict: a client that hangs up at a symbol boundary,
// every symbol it sent already checked, has not ended its stream — only
// the end frame does. The session is aborted, never accepted, and a
// tokened one keeps its checkpoint and resumes to the checker's verdict.
func TestHangUpIsNotAVerdict(t *testing.T) {
	stream := SyntheticAccept(40)
	wire := descriptor.Marshal(stream)
	for _, tc := range []struct {
		name  string
		token string
	}{{"untokened", ""}, {"tokened", "hang-up"}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{AckInterval: 8})
			h := SyntheticHeader()
			h.Token = tc.token
			c := dialT(t, addr)
			sess, err := c.Session(h)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.SendBytes(wire); err != nil {
				t.Fatal(err)
			}
			if err := sess.Flush(); err != nil {
				t.Fatal(err)
			}
			waitStats(t, srv, "every symbol stepped", func(st Stats) bool { return st.SymbolsTotal == int64(len(stream)) })
			c.Close()
			waitStats(t, srv, "hang-up counted as an abort", func(st Stats) bool { return st.SessionsAborted == 1 })
			if st := srv.Stats(); st.Accepts != 0 {
				t.Fatalf("a hang-up was accepted: %+v", st)
			}
			if tc.token == "" {
				return
			}

			h.Resume = true
			sess, err = dialT(t, addr).Session(h)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := sess.Early(); ok {
				t.Fatalf("resume hello answered by verdict %v, want an ack", v)
			}
			_, off := sess.Acked()
			if off <= 0 || off > int64(len(wire)) {
				t.Fatalf("resume ack offset %d outside (0, %d]", off, len(wire))
			}
			if err := sess.SendBytes(wire[off:]); err != nil {
				t.Fatal(err)
			}
			v, err := sess.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if v.Code != VerdictAccept {
				t.Fatalf("resumed verdict %v, want accept", v)
			}
			if st := srv.Stats(); st.ResumeReplays != 0 || st.Accepts != 1 || st.SessionsAborted != 1 {
				t.Fatalf("replays/accepts/aborts = %d/%d/%d, want 0/1/1", st.ResumeReplays, st.Accepts, st.SessionsAborted)
			}
		})
	}
}

// localVerdict is the in-process reference for one session: it decodes
// wire from a bytes.Reader, steps a witness-mode checker built from h to
// the first rejection or decode error, and otherwise calls Finish.
func localVerdict(wire []byte, h Header) Verdict {
	chk := checker.New(h.K).EnableWitness()
	if h.Params.Procs > 0 {
		chk.SetParams(h.Params)
	}
	reject := func(symbol int, offset int64, err error) Verdict {
		v := Verdict{Code: VerdictReject, Symbol: symbol, Offset: offset}
		var re *checker.RejectError
		if errors.As(err, &re) {
			v.Constraint, v.CycleLen = int(re.Constraint), re.CycleLen()
		}
		return v
	}
	dec := descriptor.NewDecoder(bytes.NewReader(wire))
	for {
		off := dec.Offset()
		sym, err := dec.Next()
		if err == io.EOF {
			if err := chk.Finish(); err != nil {
				return reject(dec.Count(), dec.Offset(), err)
			}
			return Verdict{Code: VerdictAccept, Symbol: -1, Offset: -1}
		}
		var de *descriptor.DecodeError
		if errors.As(err, &de) {
			return Verdict{Code: VerdictProtocolError, Symbol: de.Symbol, Offset: de.Offset}
		}
		if err := chk.Step(sym); err != nil {
			return reject(dec.Count()-1, off, err)
		}
	}
}

// FuzzSessionMatchesLocal differentially checks the session path against
// the in-process checker: any descriptor bytes, split into symbols frames
// at fuzzed cut points (each cut byte is the next frame's length, so
// mid-symbol splits and empty frames are included) and checked over a
// live connection — tokened with a checkpoint every 4 symbols, so acks
// interleave — get localVerdict's code, position, constraint and cycle
// length.
func FuzzSessionMatchesLocal(f *testing.F) {
	accept := descriptor.Marshal(SyntheticAccept(30))
	rejectStream, _ := SyntheticReject(12)
	reject := descriptor.Marshal(rejectStream)
	ones := bytes.Repeat([]byte{1}, len(reject))
	f.Add(accept, []byte{5, 0, 17}, false)
	f.Add(accept, []byte{5, 0, 17}, true)
	f.Add(reject, []byte{}, false)
	f.Add(reject, []byte{0, 0, 7, 40}, true)
	f.Add(reject, ones, true)                                // one-byte frames
	f.Add(accept[:len(accept)-1], []byte{3}, false)          // truncated symbol
	f.Add(append(accept[:12:12], 0x7f, 1), []byte{12}, true) // unknown tag
	f.Fuzz(func(t *testing.T, wire, cuts []byte, tokened bool) {
		if len(wire) > 1<<12 || len(cuts) > 1<<10 {
			return
		}
		cfg, h := Config{}, SyntheticHeader()
		if tokened {
			cfg.AckInterval, h.Token = 4, "fuzz"
		}
		_, addr := startServer(t, cfg)
		sess, err := dialT(t, addr).Session(h)
		if err != nil {
			t.Fatal(err)
		}
		rest := wire
		for _, cut := range cuts {
			n := min(int(cut), len(rest))
			if err := sess.SendBytes(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if len(rest) > 0 {
			if err := sess.SendBytes(rest); err != nil {
				t.Fatal(err)
			}
		}
		got, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := localVerdict(wire, h)
		if got.Code != want.Code || got.Symbol != want.Symbol || got.Offset != want.Offset ||
			got.Constraint != want.Constraint || got.CycleLen != want.CycleLen {
			t.Fatalf("session verdict %+v, local %+v", got, want)
		}
	})
}

package scserve

import (
	"errors"
	"fmt"
)

// maxDrainRedirects bounds the free (no-backoff, no-attempt) redirects a
// session takes on draining verdicts before degrading to the ordinary
// busy backoff path — the escape hatch when every reachable backend is
// draining at once.
const maxDrainRedirects = 4

// ErrResumeMiss is Replay.Open's answer when the server no longer holds
// the session's checkpoint but byte zero is still buffered: the stream
// restarts fresh on the next connection, and the miss is progress, not a
// failed attempt.
var ErrResumeMiss = errors.New("scserve: resume checkpoint gone; restarting fresh")

// Replay is the client half of session resumption, shared by RetrySession
// and scgrid's sessions. The checker is deterministic, so a session that
// lost its connection resumes exactly: the server restores its checkpoint
// and the client replays the bytes after the offset the server acked.
// Replay owns the stream buffer, the acked position a resume hello names,
// and the session currently carrying the stream; its users own only where
// each connection comes from.
//
// A trimming Replay drops bytes as they are acked. One that does not keeps
// byte zero, so the stream can also restart fresh on another server; that
// is also the only case in which a resume miss restarts the stream rather
// than deciding it.
//
//scvet:single-goroutine
type Replay struct {
	maxBuffer int
	pollEvery int
	trim      bool

	buf    []byte // stream bytes from offset start on
	start  int64
	ackSym int   // the acked position: a resume hello names it, and
	ackOff int64 // replay on the resumed session starts there

	sess      *Session // carries the stream; nil between connections
	sent      int64    // stream offset streamed on sess
	unpoll    int      // bytes streamed since the last poll
	decided   bool     // a non-busy early verdict arrived: the stream is decided
	redirects int
}

// NewReplay returns an empty stream buffer capped at maxBuffer bytes that
// polls for acks every pollEvery streamed bytes and, with trim, drops
// acked bytes.
func NewReplay(maxBuffer, pollEvery int, trim bool) *Replay {
	return &Replay{maxBuffer: maxBuffer, pollEvery: pollEvery, trim: trim}
}

// end is the stream offset one past the last buffered byte.
func (r *Replay) end() int64 { return r.start + int64(len(r.buf)) }

// Acked returns the acked byte offset a resume restarts from (0 before
// any ack, or after a restart).
func (r *Replay) Acked() int64 { return r.ackOff }

// Append adds the caller's bytes to the stream. Once a verdict that is not
// busy has arrived the stream is decided and Append drops them: every byte
// up to the symbol that decided it is already buffered, so a replay
// reaches that symbol again. A stream that would outgrow the buffer polls
// once for acks that trim it, or a verdict that decides it, before
// failing.
func (r *Replay) Append(raw []byte) error {
	if !r.decided && len(r.buf)+len(raw) > r.maxBuffer && r.sess != nil {
		// A failed poll leaves the buffer as it was; the next send on the
		// session reports the fault.
		_ = r.Poll()
	}
	if r.decided {
		return nil
	}
	if len(r.buf)+len(raw) > r.maxBuffer {
		return fmt.Errorf("scserve: stream exceeds replay buffer limit %d", r.maxBuffer)
	}
	r.buf = append(r.buf, raw...)
	return nil
}

// Restart makes the next hello start the stream fresh from byte zero, as
// a server that has none of it needs. It reports false, and changes
// nothing, when byte zero is no longer buffered.
func (r *Replay) Restart() bool {
	if r.start != 0 {
		return false
	}
	r.ackSym, r.ackOff = 0, 0
	return true
}

// Open starts the stream's session on cli: a fresh hello, or once
// something is acked a resume hello naming the acked position. The server
// answers a resume with the checkpoint it restored, which must lie inside
// the buffered bytes; replay starts exactly there, and resumed reports it.
// A resume answered by a verdict keeps the session open for Push to end.
// A resume miss while byte zero is buffered restarts the stream and
// returns ErrResumeMiss; the server has closed the connection.
func (r *Replay) Open(cli *Client, h Header) (resumed bool, err error) {
	if r.ackOff > 0 {
		h.Resume = true
		h.AckSymbol, h.AckOffset = r.ackSym, r.ackOff
	}
	sess, err := cli.Session(h)
	if err != nil {
		return false, err
	}
	if !h.Resume {
		r.sess, r.sent = sess, 0
		return false, nil
	}
	if v, ok := sess.Early(); ok {
		if v.ResumeMiss() && r.Restart() {
			return false, ErrResumeMiss
		}
		r.sess, r.sent = sess, r.ackOff
		r.decided = r.decided || !v.Busy()
		return false, nil
	}
	sym, off := sess.Acked()
	if off < r.start || off > r.end() {
		r.Restart()
		return false, fmt.Errorf("scserve: resume ack at offset %d outside buffered range [%d, %d]", off, r.start, r.end())
	}
	r.ack(sym, off)
	r.sess, r.sent = sess, off
	return true, nil
}

// ack moves the acked position, trimming the buffer up to it when the
// Replay trims.
func (r *Replay) ack(sym int, off int64) {
	r.ackSym, r.ackOff = sym, off
	if r.trim {
		r.buf = r.buf[off-r.start:]
		r.start = off
	}
}

// Poll flushes what has been streamed and reads what the server has
// answered so far: acks, which advance the acked position, and an early
// verdict, which decides the stream unless it is busy.
func (r *Replay) Poll() error {
	r.unpoll = 0
	if err := r.sess.Flush(); err != nil {
		return err
	}
	if err := r.sess.Poll(); err != nil {
		return err
	}
	if sym, off := r.sess.Acked(); off > r.ackOff && off <= r.end() {
		r.ack(sym, off)
	}
	if v, ok := r.sess.Early(); ok && !v.Busy() {
		r.decided = true
	}
	return nil
}

// Push streams the unsent tail on the open session, polling every
// pollEvery bytes, and with finish ends the session. It stops streaming
// at an early verdict. A busy one also ends the session, so the caller
// backs off and restarts at once instead of buffering behind a session
// that will never ack. ended reports that the session is over with
// verdict v; after an error the caller drops the connection.
func (r *Replay) Push(finish bool) (v Verdict, ended bool, err error) {
	chunk := min(maxChunk, r.pollEvery)
	for r.sent < r.end() {
		if early, ok := r.sess.Early(); ok {
			finish = finish || early.Busy()
			break
		}
		n := min(r.end()-r.sent, int64(chunk))
		if err := r.sess.SendBytes(r.buf[r.sent-r.start:][:n]); err != nil {
			return Verdict{}, false, err
		}
		r.sent += n
		r.unpoll += int(n)
		if r.unpoll >= r.pollEvery {
			if err := r.Poll(); err != nil {
				return Verdict{}, false, err
			}
		}
	}
	if !finish {
		return Verdict{}, false, nil
	}
	v, err = r.sess.Finish()
	r.sess = nil
	if err != nil {
		return Verdict{}, false, err
	}
	return v, true, nil
}

// Drop forgets the open session after its connection is gone.
func (r *Replay) Drop() { r.sess = nil }

// Redirect reports whether the session may follow one more draining
// verdict without spending an attempt or a backoff sleep, and counts it.
func (r *Replay) Redirect() bool {
	if r.redirects >= maxDrainRedirects {
		return false
	}
	r.redirects++
	return true
}

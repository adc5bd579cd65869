package scserve

import (
	"fmt"
	mrand "math/rand"
	"net"
	"time"

	"scverify/internal/descriptor"
)

// RetryConfig tunes a RetryClient. The zero value gets sane defaults.
type RetryConfig struct {
	// Timeout is the per-operation deadline (dial, frame read, frame
	// write). Default 10s.
	Timeout time.Duration
	// MaxAttempts bounds connection attempts per operation: each
	// SendBytes/Finish/Stats call may redial up to this many times before
	// giving up. Default 5.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff between
	// attempts: attempt i sleeps a jittered min(BaseDelay<<i, MaxDelay).
	// Defaults 50ms and 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the backoff jitter deterministic for tests; 0 seeds from
	// the wall clock.
	Seed int64
	// MaxBuffer caps the local replay buffer of unacked stream bytes. A
	// session whose unacked tail outgrows it fails cleanly (the
	// degrade-to-error invariant) rather than buffering without bound.
	// Default 16 MiB.
	MaxBuffer int
	// PollEvery is the number of streamed bytes between ack polls while
	// sending; polls trim the replay buffer. Default 32 KiB.
	PollEvery int
	// Dial overrides the transport, e.g. to route through a faultnet
	// link. Defaults to net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	if c.MaxBuffer <= 0 {
		c.MaxBuffer = 16 << 20
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 32 << 10
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// RetryClient is the fault-tolerant client: it wraps the session protocol
// in bounded-backoff reconnection and transparent session resumption, so
// transient network faults cost retries, not verdicts. Each session gets
// a random resume token; the client buffers the unacked tail of its
// stream locally and, after a reconnect, replays only from the server's
// last checkpoint. The guarantee mirrors the server's: a delivered
// verdict is always the deterministic checker's verdict over the exact
// stream sent — faults can surface as errors, never as wrong answers.
//
// Not goroutine-safe; open one RetryClient per concurrent stream.
//
//scvet:single-goroutine
type RetryClient struct {
	addr string
	cfg  RetryConfig
	rng  *mrand.Rand
	c    *Client // current connection, nil between attempts
}

// NewRetryClient returns a client for the server at addr. No connection
// is made until the first operation.
func NewRetryClient(addr string, cfg RetryConfig) *RetryClient {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &RetryClient{addr: addr, cfg: cfg, rng: mrand.New(mrand.NewSource(seed))}
}

// Close drops the current connection, if any.
func (rc *RetryClient) Close() error {
	if rc.c == nil {
		return nil
	}
	err := rc.c.Close()
	rc.c = nil
	return err
}

// dropConn discards a connection after a transport error.
func (rc *RetryClient) dropConn() {
	if rc.c != nil {
		rc.c.Close()
		rc.c = nil
	}
}

// backoff sleeps the jittered exponential delay for the given attempt.
func (rc *RetryClient) backoff(attempt int) {
	d := rc.cfg.BaseDelay << attempt
	if d <= 0 || d > rc.cfg.MaxDelay {
		d = rc.cfg.MaxDelay
	}
	// Jitter uniformly over [d/2, d] so a fleet of clients kicked off by
	// the same fault doesn't reconnect in lockstep.
	d = d/2 + time.Duration(rc.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// connect ensures a live connection, dialing if needed.
func (rc *RetryClient) connect() error {
	if rc.c != nil {
		return nil
	}
	conn, err := rc.cfg.Dial(rc.addr, rc.cfg.Timeout)
	if err != nil {
		return err
	}
	rc.c = NewClient(conn, rc.cfg.Timeout)
	return nil
}

// Stats fetches the server's counters, retrying transport failures.
func (rc *RetryClient) Stats() (Stats, error) {
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.backoff(attempt - 1)
		}
		if err := rc.connect(); err != nil {
			lastErr = err
			continue
		}
		st, err := rc.c.Stats()
		if err == nil {
			return st, nil
		}
		lastErr = err
		rc.dropConn()
	}
	return Stats{}, fmt.Errorf("scserve: stats failed after %d attempts: %w", rc.cfg.MaxAttempts, lastErr)
}

// Session opens a fault-tolerant session. h.Token may be left empty (a
// random token is drawn); h.Resume must not be set — resumption is the
// RetrySession's business.
func (rc *RetryClient) Session(h Header) (*RetrySession, error) {
	if h.Resume {
		return nil, fmt.Errorf("scserve: RetryClient manages resumption itself; do not set Header.Resume")
	}
	if h.Token == "" {
		h.Token = NewToken()
	}
	return &RetrySession{rc: rc, hdr: h, r: NewReplay(rc.cfg.MaxBuffer, rc.cfg.PollEvery, true)}, nil
}

// RetrySession is one logical checking session that survives connection
// loss. Its Replay buffers the unacked tail of the stream and replays it
// into the server's checkpoint after a reconnect.
type RetrySession struct {
	rc   *RetryClient
	hdr  Header
	r    *Replay
	done bool
}

// Acked returns the highest server-acked byte offset: bytes before it
// have been dropped from the replay buffer.
func (s *RetrySession) Acked() int64 { return s.r.Acked() }

// SendBytes appends raw descriptor wire bytes to the logical stream,
// streaming them (and any unsent replay tail) with retries. The bytes
// need not align with symbol boundaries. Once the server has delivered a
// verdict that is not busy (an early rejection, say), the bytes are
// dropped and SendBytes returns nil; Finish returns that verdict.
func (s *RetrySession) SendBytes(raw []byte) error {
	if s.done {
		return fmt.Errorf("scserve: send after Finish")
	}
	if err := s.r.Append(raw); err != nil {
		return err
	}
	_, err := s.run(false)
	return err
}

// Send encodes and streams the given symbols.
func (s *RetrySession) Send(syms ...descriptor.Symbol) error {
	var scratch []byte
	for _, sym := range syms {
		scratch = descriptor.AppendBinary(scratch, sym)
	}
	return s.SendBytes(scratch)
}

// Finish concludes the logical session and returns the verdict, retrying
// transport failures (resuming and replaying the unacked tail as needed)
// and busy rejections (with backoff, restarting the session). A draining
// verdict is a redirect, not a failure: the connection is dropped and the
// session restarts immediately — no backoff, no attempt consumed — so
// that a dial through a dispatcher or VIP lands on a backend that is
// admitting. Every verdict returned was produced by the server's checker
// over exactly the bytes this session streamed.
func (s *RetrySession) Finish() (Verdict, error) {
	if s.done {
		return Verdict{}, fmt.Errorf("scserve: session already finished")
	}
	s.done = true
	return s.run(true)
}

// run is the attempt loop behind SendBytes and Finish: it streams the
// buffered tail and, with finish, concludes the session. A busy verdict,
// which ends the session mid-stream as well as at Finish, backs off and
// restarts the session from the acked offset on the same connection.
func (s *RetrySession) run(finish bool) (Verdict, error) {
	var lastErr error
	skipBackoff := false
	for attempt := 0; attempt < s.rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 && !skipBackoff {
			s.rc.backoff(attempt - 1)
		}
		skipBackoff = false
		if s.r.sess == nil {
			if err := s.rc.connect(); err != nil {
				lastErr = err
				continue
			}
			if _, err := s.r.Open(s.rc.c, s.hdr); err != nil {
				lastErr = err
				s.rc.dropConn()
				continue
			}
		}
		v, ended, err := s.r.Push(finish)
		if err != nil {
			lastErr = err
			s.r.Drop()
			s.rc.dropConn()
			continue
		}
		if !ended {
			return Verdict{}, nil
		}
		if !v.Busy() {
			return v, nil
		}
		lastErr = v.Err()
		if v.Draining() && s.r.Redirect() {
			// Redirect-not-failure: the backend is draining, not
			// overloaded. Redial immediately (through a dispatcher the
			// fresh connection is placed on an admitting backend) and
			// give the attempt back.
			s.rc.dropConn()
			attempt--
			skipBackoff = true
		}
	}
	op := "send"
	if finish {
		op = "session"
	}
	return Verdict{}, fmt.Errorf("scserve: %s failed after %d attempts: %w", op, s.rc.cfg.MaxAttempts, lastErr)
}

// Check is the one-shot convenience: it opens a fault-tolerant session
// with h, streams the whole stream, and returns the verdict.
func (rc *RetryClient) Check(h Header, stream descriptor.Stream) (Verdict, error) {
	s, err := rc.Session(h)
	if err != nil {
		return Verdict{}, err
	}
	if err := s.Send(stream...); err != nil {
		return Verdict{}, err
	}
	return s.Finish()
}

// Package scgrid is the sharded multi-backend checking fabric: a
// client-side dispatcher that spreads SC-checking sessions across a pool
// of scserve backends. The paper's checker is linear in trace length and
// every session is independent, which makes checking embarrassingly
// shardable — aggregate throughput should scale with backends — but only
// if the fabric never trades a fault for a wrong verdict. scgrid keeps
// the scserve/PR-4 invariant end to end: a backend death, restart, or
// network blip may cost a session retries or a clean error, yet every
// verdict actually delivered is the deterministic checker's verdict over
// exactly the bytes the session streamed.
//
// The pieces:
//
//   - A backend pool with periodic health probes (a hello/verdict round
//     trip over the real session path), ejection on failure, jittered
//     re-admission, and per-backend in-flight accounting.
//   - A dispatcher that places one-shot sessions by power-of-two-choices
//     least-loaded selection, and pins tokened (resumable) sessions by
//     rendezvous hashing on the resume token — so a reconnect after a
//     transient blip lands on the original backend and resumes from its
//     checkpoint, while a reconnect after a backend death remaps to a
//     live backend and starts fresh from the session's replay buffer.
//   - Admission control: a bounded wait queue with deadline-aware
//     shedding that answers with the existing scserve busy verdict
//     instead of stacking unbounded latency.
//
// Sessions buffer their whole stream (capped by Config.MaxBuffer):
// failover to a different backend requires replay from byte zero, and a
// verdict over anything less than the exact stream would break the
// invariant. Resume-on-blip still pays off — the pinned backend checks
// only the unacked tail — but correctness never depends on a checkpoint
// surviving.
package scgrid

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"scverify/internal/descriptor"
	"scverify/internal/scserve"
)

// Grid dispatches checking sessions across a pool of scserve backends.
// Construct with New; Grid is safe for concurrent use (each Session is
// single-goroutine, like scserve's clients).
type Grid struct {
	cfg  Config
	pool *pool
}

// New builds a grid over the given backend addresses and starts its
// health prober. Backends start presumed-healthy and are ejected by their
// first failed probe or dial.
func New(addrs []string, cfg Config) (*Grid, error) {
	if len(addrs) == 0 {
		return nil, errors.New("scgrid: no backends")
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" {
			return nil, errors.New("scgrid: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("scgrid: duplicate backend %s", a)
		}
		seen[a] = true
	}
	cfg = cfg.withDefaults()
	g := &Grid{cfg: cfg, pool: newPool(addrs, cfg)}
	g.pool.start()
	return g, nil
}

// Close stops the health prober. Open sessions keep their slots; callers
// should conclude them first.
func (g *Grid) Close() { g.pool.close() }

// Stats snapshots per-backend counters and pool-level admission stats.
func (g *Grid) Stats() GridStats { return g.pool.stats() }

// Healthy returns the number of currently healthy backends.
func (g *Grid) Healthy() int { return g.pool.stats().Healthy }

// ProbeNow runs one synchronous probe round over every backend,
// regardless of schedule — startup convergence and tests.
func (g *Grid) ProbeNow() {
	now := time.Now()
	for _, b := range g.pool.backends {
		b.mu.Lock()
		b.nextProbe = now
		b.mu.Unlock()
	}
	g.pool.probeRound()
}

// Session opens a grid session. A Header with a Token is resumable and
// pinned to its rendezvous backend (use scserve.NewToken for a fresh
// one); a Header without a Token is one-shot and placed least-loaded.
// h.Resume must not be set — resumption is the grid's business.
func (g *Grid) Session(h scserve.Header) (*Session, error) {
	if h.Resume {
		return nil, errors.New("scgrid: the grid manages resumption itself; do not set Header.Resume")
	}
	return &Session{g: g, hdr: h, r: scserve.NewReplay(g.cfg.MaxBuffer, g.cfg.PollEvery, false)}, nil
}

// Check is the one-shot convenience: it opens a session with h, streams
// the whole stream, and returns the verdict. A shed session returns the
// busy verdict (see Verdict.Busy) with a nil error.
func (g *Grid) Check(h scserve.Header, stream descriptor.Stream) (scserve.Verdict, error) {
	s, err := g.Session(h)
	if err != nil {
		return scserve.Verdict{}, err
	}
	defer s.Close()
	if err := s.Send(stream...); err != nil {
		return scserve.Verdict{}, err
	}
	return s.Finish()
}

// Session is one logical checking session dispatched through the grid.
// It survives backend connection loss (resuming on the pinned backend's
// checkpoint), backend death (failing over to a live backend and
// replaying from byte zero), and backend restart (a resume miss restarts
// fresh on the same backend). Not goroutine-safe.
//
//scvet:single-goroutine
type Session struct {
	g   *Grid
	hdr scserve.Header
	r   *scserve.Replay // keeps the whole stream: failover replays from byte zero

	b      *backend        // backend currently holding this session's slot
	cli    *scserve.Client // connection carrying the open session, nil between sessions
	landed bool            // a session reached some backend at least once
	done   bool
	shed   *scserve.Verdict // set when admission shed this session
}

// Backend returns the address of the backend currently serving the
// session ("" before the first dispatch).
func (s *Session) Backend() string {
	if s.b == nil {
		return ""
	}
	return s.b.addr
}

// Close abandons the session: the backend connection is dropped and the
// in-flight slot released. A finished session's Close is a no-op.
func (s *Session) Close() {
	s.dropConn()
	s.releaseSlot()
	s.done = true
}

func (s *Session) dropConn() {
	if s.cli != nil {
		s.cli.Close()
		s.cli = nil
	}
	s.r.Drop()
}

func (s *Session) releaseSlot() {
	if s.b != nil {
		s.b.release()
		s.b = nil
	}
}

// backoff sleeps the jittered exponential delay for the given attempt.
func (s *Session) backoff(attempt int) {
	d := s.g.cfg.BaseDelay << attempt
	if d <= 0 || d > s.g.cfg.MaxDelay {
		d = s.g.cfg.MaxDelay
	}
	time.Sleep(s.g.pool.jitter(d))
}

// ensure establishes a connection to the right backend with an open
// session on it. It owns placement:
//
//   - tokened sessions target their rendezvous backend — the same one
//     after a blip (resume), a different live one after a death
//     (failover, fresh start);
//   - one-shot sessions re-place least-loaded on every reconnect.
//
// Slot accounting moves with the session: reconnecting to the same
// backend keeps the held slot, moving releases it and re-admits on the
// new backend (which may queue and shed).
func (s *Session) ensure() error {
	if s.cli != nil {
		return nil
	}
	var want *backend
	if s.hdr.Token != "" {
		if s.r.Acked() > 0 && s.b != nil && s.b.isHealthy() {
			// Sticky resume: our checkpoint lives on this backend and it is
			// still answering — stay, even if it started draining. Draining
			// backends keep serving resumes precisely so in-flight sessions
			// finish where their bytes are instead of paying a full replay.
			want = s.b
		} else {
			want = s.g.pool.pinned(s.hdr.Token)
		}
	} else if s.b != nil && s.b.isHealthy() {
		want = s.b // one-shot: keep the slot unless the backend died
	}
	if want == nil || want != s.b {
		// An empty healthy set waits in the admission queue for a
		// re-admission rather than spinning the retry budget.
		s.releaseSlot()
		b, err := s.g.pool.acquire(s.hdr.Token, s.g.cfg.QueueWait)
		if err != nil {
			return err
		}
		s.b = b
		if s.landed {
			s.b.failovers.Add(1)
			tok := s.hdr.Token
			if len(tok) > 8 {
				tok = tok[:8]
			}
			s.g.pool.event("session_failover", "token", tok, "backend", b.addr)
		}
		// A new backend has none of our bytes: fresh start, full replay.
		s.r.Restart()
	}

	ctx, cancel := context.WithTimeout(context.Background(), s.g.cfg.Timeout)
	conn, err := s.g.cfg.Dial(ctx, s.b.addr)
	cancel()
	if err != nil {
		// A refused dial is the fastest death signal there is: eject so
		// the next attempt (and every other session) places elsewhere.
		s.g.pool.eject(s.b, err)
		s.releaseSlot()
		return err
	}
	s.cli = scserve.NewClient(conn, s.g.cfg.Timeout)
	resumed, err := s.r.Open(s.cli, s.hdr)
	if err != nil {
		s.dropConn()
		return err
	}
	s.b.sessions.Add(1)
	s.landed = true
	if resumed {
		s.b.resumes.Add(1)
	}
	return nil
}

// shedVerdict finalizes a shed session with the busy verdict.
func (s *Session) shedVerdict(err error) scserve.Verdict {
	v := scserve.BusyVerdict(fmt.Sprintf("grid: %v", errors.Unwrap(err)))
	s.shed = &v
	s.releaseSlot()
	return v
}

// SendBytes appends raw descriptor wire bytes to the logical stream and
// streams them (with any unsent tail) through the current backend,
// retrying, resuming, and failing over as needed. The bytes need not
// align with symbol boundaries. Once the session has a verdict that is
// not busy (an early rejection, or an admission shed), the bytes are
// dropped and SendBytes returns nil; Finish returns that verdict.
func (s *Session) SendBytes(raw []byte) error {
	if s.done {
		return errors.New("scgrid: send after Finish")
	}
	if s.shed != nil {
		return nil
	}
	if err := s.r.Append(raw); err != nil {
		return err
	}
	_, err := s.run(false)
	return err
}

// Send encodes and streams the given symbols.
func (s *Session) Send(syms ...descriptor.Symbol) error {
	var scratch []byte
	for _, sym := range syms {
		scratch = descriptor.AppendBinary(scratch, sym)
	}
	return s.SendBytes(scratch)
}

// Finish concludes the session and returns the verdict. Backend busy
// verdicts are retried with backoff (restarting the session); admission
// sheds return the grid's busy verdict. Every non-busy verdict returned
// was produced by a backend's checker over exactly the bytes this
// session streamed.
func (s *Session) Finish() (scserve.Verdict, error) {
	if s.done {
		return scserve.Verdict{}, errors.New("scgrid: session already finished")
	}
	s.done = true
	if s.shed != nil {
		return *s.shed, nil
	}
	return s.run(true)
}

// run is the attempt loop behind SendBytes and Finish: it places and
// opens the session, streams the buffered tail and, with finish,
// concludes it. A busy verdict, which ends the session mid-stream as well
// as at Finish, backs off and restarts it from the acked offset.
func (s *Session) run(finish bool) (scserve.Verdict, error) {
	var lastErr error
	skipBackoff := false
	for attempt := 0; attempt < s.g.cfg.MaxAttempts; attempt++ {
		if attempt > 0 && !skipBackoff {
			s.backoff(attempt - 1)
		}
		skipBackoff = false
		if err := s.ensure(); err != nil {
			if errors.Is(err, errShed) {
				return s.shedVerdict(err), nil
			}
			if errors.Is(err, scserve.ErrResumeMiss) {
				attempt-- // a miss answer is progress, not a failed attempt
			}
			lastErr = err
			continue
		}
		v, ended, err := s.r.Push(finish)
		if err != nil {
			lastErr = err
			s.dropConn() // the slot is kept: placement on the next ensure decides
			continue
		}
		if !ended {
			return scserve.Verdict{}, nil
		}
		s.dropConn()
		if !v.Busy() {
			switch v.Code {
			case scserve.VerdictAccept:
				s.b.accepts.Add(1)
			case scserve.VerdictReject:
				s.b.rejects.Add(1)
			}
			s.releaseSlot()
			return v, nil
		}
		lastErr = v.Err()
		if v.Draining() {
			// The backend is draining, not overloaded: mark it so
			// placement avoids it, give the slot back, and redirect
			// immediately — a drain is an explicit "go elsewhere", so
			// it costs neither a retry attempt nor a backoff sleep.
			s.g.pool.setDraining(s.b, true)
			if s.r.Redirect() {
				s.g.pool.drainRedirects.Add(1)
				s.releaseSlot()
				attempt--
				skipBackoff = true
				continue
			}
		}
		// The backend itself is at capacity: back off and restart.
		// One-shot sessions give their slot back so the retry can
		// re-place least-loaded; tokened ones stay with their
		// rendezvous backend.
		if s.hdr.Token == "" {
			s.releaseSlot()
		}
	}
	if s.b != nil {
		s.b.errors.Add(1)
	}
	s.dropConn()
	s.releaseSlot()
	op := "send"
	if finish {
		op = "session"
	}
	return scserve.Verdict{}, fmt.Errorf("scgrid: %s failed after %d attempts: %w", op, s.g.cfg.MaxAttempts, lastErr)
}

// Dialer adapts a faultnet-style DialContext (network first) to
// Config.Dial's addr-only signature over TCP.
func Dialer(dc func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		return dc(ctx, "tcp", addr)
	}
}

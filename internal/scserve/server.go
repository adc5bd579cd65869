// Package scserve turns the per-run SC-checking pipeline into a long-lived
// concurrent network service: the online half of the testing deployment of
// Section 5 of Condon & Hu, where observers embedded in running systems
// emit descriptor streams and a central adjudicator accepts or rejects
// them. Clients open length-framed sessions over TCP (see frame.go for the
// protocol), stream descriptor wire bytes, and receive one structured
// verdict per session; each session runs a dedicated checker.Checker on
// its connection's goroutine, decoding symbols straight off the frames and
// reading the next frame only once the current one is checked, so a fast
// producer is throttled by TCP backpressure rather than buffered.
//
// Sessions that announce a resume token are additionally fault tolerant:
// the server clones the checker at symbol boundaries (checker.Clone),
// retains the newest clone under the token, and acks the checkpointed
// position; a client that loses its connection reopens the session with
// the token and replays only its unacked tail. The invariant throughout
// is degrade-to-error, never wrong-verdict — a fault can cost a session
// an error, but every verdict actually delivered is the deterministic
// checker's verdict over the exact bytes the client streamed.
package scserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/witness"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("scserve: server closed")

// Config tunes a Server. The zero value gets sane defaults from New.
type Config struct {
	// MaxSessions caps concurrently open sessions; further hellos receive
	// a clean busy verdict (Verdict.Busy) and the connection stays
	// usable. Default 256.
	MaxSessions int
	// MaxFrame caps a frame payload in bytes. Default 1 MiB.
	MaxFrame int
	// MaxK caps the bandwidth bound a session may request — the checker
	// allocates Θ(k²) state, so k is a resource the client must not
	// control unboundedly. Default 4096.
	MaxK int
	// ReadTimeout bounds each frame read; it doubles as the idle timeout
	// between sessions on a kept-alive connection. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each server write (verdicts, acks, stats), so a
	// client that stops reading cannot park a handler forever. Default 1m;
	// negative disables.
	WriteTimeout time.Duration
	// AckInterval is the number of symbols between checkpoints on token
	// sessions (checker clone + ack frame). Default 1024.
	AckInterval int
	// ResumeMaxSessions caps retained checkpoints (resume tokens); the
	// least recently touched is evicted first. Default 1024.
	ResumeMaxSessions int
	// ResumeMaxBytes caps the accounted memory of retained checkpoints.
	// Default 64 MiB.
	ResumeMaxBytes int64
	// ResumeTTL expires checkpoints untouched for this long. Default 15m;
	// negative disables.
	ResumeTTL time.Duration
	// TierLimit bounds the size (in operations) of the minimized witness
	// core the server re-adjudicates against the weaker-model ladder for
	// sessions that opted in via Header.Tiered. 0 means the spectrum
	// default; negative disables tiering entirely (opted-in sessions get
	// plain verdicts — a missing tier is always legal, a wrong one never).
	TierLimit int
	// TierMaxSymbols caps the stream length retained for tier
	// adjudication; longer streams are rejected untier-ed. Default 4096.
	TierMaxSymbols int
	// AdmitWait is how long an over-capacity hello may park in the
	// fair-share admission queue before receiving the busy verdict. 0
	// disables waiting (immediate busy, the pre-queue behavior).
	AdmitWait time.Duration
	// AdmitQueue caps parked hellos. Default MaxSessions.
	AdmitQueue int
	// TenantSessions caps one tenant's concurrent sessions; over-cap
	// hellos receive the typed quota verdict (Verdict.Quota). 0 uncaps.
	// The anonymous tenant "" is exempt (identification is opt-in).
	TenantSessions int
	// TenantWeights sets fair-share weights for the admission queue;
	// missing or non-positive entries weigh 1. Freed slots go to the
	// waiting tenant with the lowest active/weight deficit.
	TenantWeights map[string]int
	// TenantBytesPerSec rate-limits each identified tenant's symbol
	// bytes through a token bucket; a session that overdraws receives
	// the quota verdict mid-stream (its checkpoint, if any, survives for
	// a later resume). 0 disables.
	TenantBytesPerSec int64
	// TenantBurstBytes is the bucket size for TenantBytesPerSec.
	// Default: one second's worth.
	TenantBurstBytes int64
	// ExploreWorkers is the expansion worker count for each explore
	// session's engine shard; 0 means GOMAXPROCS.
	ExploreWorkers int
	// ExploreMaxStates clamps the per-shard visited-set cap an explore
	// hello may request. Default 4M; a hello asking for more is clamped,
	// never trusted (hitting the clamp degrades the grid verdict to
	// incomplete, not to a wrong verified).
	ExploreMaxStates int
	// ExploreStepDelay sleeps before each state expansion in explore
	// sessions — a simulated per-state latency for tests (zero in
	// production).
	ExploreStepDelay time.Duration
	// Log, when set, receives the server's diagnostics as structured
	// events (session open/verdict/abort, read errors, drains, quota hits)
	// with session ID and tenant attributes and, on failures, the error.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 1 << 20
	}
	if c.MaxK <= 0 {
		c.MaxK = 4096
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.AckInterval <= 0 {
		c.AckInterval = 1024
	}
	if c.ResumeMaxSessions <= 0 {
		c.ResumeMaxSessions = 1024
	}
	if c.ResumeMaxBytes <= 0 {
		c.ResumeMaxBytes = 64 << 20
	}
	if c.ResumeTTL == 0 {
		c.ResumeTTL = 15 * time.Minute
	}
	if c.TierMaxSymbols <= 0 {
		c.TierMaxSymbols = 4096
	}
	if c.TenantBytesPerSec > 0 && c.TenantBurstBytes <= 0 {
		c.TenantBurstBytes = c.TenantBytesPerSec
	}
	if c.ExploreMaxStates <= 0 {
		c.ExploreMaxStates = 4 << 20
	}
	return c
}

// Stats is a snapshot of the server's counters, served to clients as JSON
// in stats frames.
type Stats struct {
	SessionsTotal int64 `json:"sessions_total"`
	// SessionsActive counts admitted sessions holding a slot. A session
	// takes its slot at admission and gives it back just before its
	// verdict is written (or when it ends without one), so a client that
	// has read its verdict never finds its own session still counted.
	SessionsActive  int64 `json:"sessions_active"`
	SessionsAborted int64 `json:"sessions_aborted"`
	Accepts         int64 `json:"accepts"`
	Rejects         int64 `json:"rejects"`
	ProtocolErrors  int64 `json:"protocol_errors"`
	Busy            int64 `json:"busy"`
	SymbolsTotal    int64 `json:"symbols_total"`
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	Resumes         int64 `json:"resumes"`
	ResumeReplays   int64 `json:"resume_replays"`
	ResumeMisses    int64 `json:"resume_misses"`
	TiersComputed   int64 `json:"tiers_computed"`
	Draining        bool  `json:"draining"`
	Drains          int64 `json:"drains"`
	DrainRejects    int64 `json:"drain_rejects"`
	QuotaRejects    int64 `json:"quota_rejects"`
	AdmitParked     int64 `json:"admit_parked"`

	// Explore-session (distributed exploration shard) counters.
	ExploreSessions    int64 `json:"explore_sessions"`
	ExploreStates      int64 `json:"explore_states"`
	ExploreTransitions int64 `json:"explore_transitions"`
	ExploreForwards    int64 `json:"explore_forwards"`
	ExploreViolations  int64 `json:"explore_violations"`

	UptimeSeconds  float64 `json:"uptime_seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	SymbolsPerSec  float64 `json:"symbols_per_sec"`

	// Tenants breaks the counters down by identified tenant (hellos
	// carrying the tenant field); anonymous traffic appears only in the
	// global counters above.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one identified tenant's slice of the counters.
type TenantStats struct {
	Sessions     int64 `json:"sessions"`
	Active       int64 `json:"active"`
	Accepts      int64 `json:"accepts"`
	Rejects      int64 `json:"rejects"`
	Busy         int64 `json:"busy"`
	QuotaRejects int64 `json:"quota_rejects"`
	Bytes        int64 `json:"bytes"`
}

// String renders the operator-facing one-liner.
func (st Stats) String() string {
	s := fmt.Sprintf("sessions %d (%d active, %d aborted), verdicts %d/%d/%d accept/reject/error, %d busy, %d symbols, %d checkpoints (%dB, %d resumes/%d replays/%d misses), %.0f symbols/s",
		st.SessionsTotal, st.SessionsActive, st.SessionsAborted,
		st.Accepts, st.Rejects, st.ProtocolErrors, st.Busy, st.SymbolsTotal,
		st.Checkpoints, st.CheckpointBytes, st.Resumes, st.ResumeReplays, st.ResumeMisses, st.SymbolsPerSec)
	if st.Draining {
		s += " [DRAINING]"
	}
	if st.Drains > 0 || st.DrainRejects > 0 || st.QuotaRejects > 0 || st.AdmitParked > 0 {
		s += fmt.Sprintf(", %d drains (%d refused), %d quota rejects, %d parked",
			st.Drains, st.DrainRejects, st.QuotaRejects, st.AdmitParked)
	}
	if st.ExploreSessions > 0 {
		s += fmt.Sprintf(", explore: %d sessions, %d states, %d transitions, %d forwards, %d violations",
			st.ExploreSessions, st.ExploreStates, st.ExploreTransitions, st.ExploreForwards, st.ExploreViolations)
	}
	return s
}

// Server is the concurrent SC-checking service. Construct with New, start
// with Serve, stop with Shutdown.
type Server struct {
	cfg    Config
	start  time.Time
	resume *resumeStore
	adm    *admission

	mu     sync.Mutex
	lns    map[net.Listener]bool // guarded by mu
	conns  map[net.Conn]bool     // guarded by mu
	closed bool                  // guarded by mu; set by Shutdown

	wg sync.WaitGroup // one per connection handler

	// drainMode is the soft drain, distinct from Shutdown: listeners
	// stay open, in-flight and resuming sessions run to their verdicts,
	// but fresh hellos are refused with the draining verdict so a
	// dispatcher redirects them. Flipped by Drain/Undrain (SIGUSR1 or
	// the drain admin frame in the daemons).
	drainMode atomic.Bool

	tenantMu sync.Mutex
	tenants  map[string]*tenantCounters // guarded by tenantMu (map only)

	sessionsTotal   atomic.Int64
	sessionsActive  atomic.Int64
	sessionsAborted atomic.Int64
	accepts         atomic.Int64
	rejects         atomic.Int64
	protoErrs       atomic.Int64
	busy            atomic.Int64
	symbolsTotal    atomic.Int64
	resumes         atomic.Int64
	resumeReplays   atomic.Int64
	resumeMisses    atomic.Int64
	tiersComputed   atomic.Int64
	drains          atomic.Int64
	drainRejects    atomic.Int64
	quotaRejects    atomic.Int64
	admitParked     atomic.Int64

	exploreSessions    atomic.Int64
	exploreStates      atomic.Int64
	exploreTransitions atomic.Int64
	exploreForwards    atomic.Int64
	exploreViolations  atomic.Int64
}

// tenantCounters is one identified tenant's counter slice plus its
// byte-quota token bucket.
type tenantCounters struct {
	sessions atomic.Int64
	accepts  atomic.Int64
	rejects  atomic.Int64
	busy     atomic.Int64
	quota    atomic.Int64
	bytes    atomic.Int64

	mu     sync.Mutex
	tokens float64   // byte-quota bucket level, guarded by mu
	last   time.Time // last refill, guarded by mu
}

// New returns a server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		resume:  newResumeStore(cfg.ResumeMaxSessions, cfg.ResumeMaxBytes, cfg.ResumeTTL),
		lns:     make(map[net.Listener]bool),
		conns:   make(map[net.Conn]bool),
		tenants: make(map[string]*tenantCounters),
	}
	s.adm = newAdmission(cfg, &s.sessionsActive, &s.admitParked)
	return s
}

// event emits one structured connection-path event when Config.Log is
// set; args are alternating slog key/value pairs.
func (s *Server) event(ev string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Info(ev, args...)
	}
}

// tenantC returns the counters of an identified tenant, creating them on
// first sight when create is set. The anonymous tenant "" has none.
func (s *Server) tenantC(tenant string, create bool) *tenantCounters {
	if tenant == "" {
		return nil
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	tc := s.tenants[tenant]
	if tc == nil && create {
		tc = &tenantCounters{}
		s.tenants[tenant] = tc
	}
	return tc
}

// countTenantVerdict folds a delivered verdict into the tenant's
// counters.
func (s *Server) countTenantVerdict(tenant string, v Verdict) {
	tc := s.tenantC(tenant, true)
	if tc == nil {
		return
	}
	switch {
	case v.Code == VerdictAccept:
		tc.accepts.Add(1)
	case v.Code == VerdictReject:
		tc.rejects.Add(1)
	case v.Quota():
		tc.quota.Add(1)
	case v.Busy():
		tc.busy.Add(1)
	}
}

// chargeTenant accounts n symbol bytes to the tenant and, when a byte
// quota is configured, draws them from the tenant's token bucket. It
// reports false when the bucket is dry — the session gets the quota
// verdict. Anonymous sessions are never charged (identity is opt-in; the
// global caps still bound them).
func (s *Server) chargeTenant(tenant string, n int) bool {
	tc := s.tenantC(tenant, true)
	if tc == nil {
		return true
	}
	tc.bytes.Add(int64(n))
	rate := s.cfg.TenantBytesPerSec
	if rate <= 0 {
		return true
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	now := time.Now()
	burst := float64(s.cfg.TenantBurstBytes)
	if tc.last.IsZero() {
		tc.tokens = burst
	} else {
		tc.tokens += now.Sub(tc.last).Seconds() * float64(rate)
		if tc.tokens > burst {
			tc.tokens = burst
		}
	}
	tc.last = now
	if tc.tokens < float64(n) {
		return false
	}
	tc.tokens -= float64(n)
	return true
}

// Drain flips the server into draining mode: listeners stay open and
// in-flight, resuming, and replayed sessions still run to their
// verdicts, but fresh hellos are refused with the draining verdict
// (Verdict.Draining) so drain-aware clients redirect immediately. The
// checkpoint store keeps answering resume probes, so an upgrade is a
// mass planned failover through the existing token machinery.
func (s *Server) Drain() {
	if !s.drainMode.Swap(true) {
		s.drains.Add(1)
		s.event("drain")
	}
}

// Undrain returns a draining server to normal admission.
func (s *Server) Undrain() {
	if s.drainMode.Swap(false) {
		s.event("undrain")
	}
}

// Draining reports whether the server is in drain mode.
func (s *Server) Draining() bool { return s.drainMode.Load() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	ckN, ckB := s.resume.snapshot()
	st := Stats{
		SessionsTotal:   s.sessionsTotal.Load(),
		SessionsActive:  s.sessionsActive.Load(),
		SessionsAborted: s.sessionsAborted.Load(),
		Accepts:         s.accepts.Load(),
		Rejects:         s.rejects.Load(),
		ProtocolErrors:  s.protoErrs.Load(),
		Busy:            s.busy.Load(),
		SymbolsTotal:    s.symbolsTotal.Load(),
		Checkpoints:     ckN,
		CheckpointBytes: ckB,
		Resumes:         s.resumes.Load(),
		ResumeReplays:   s.resumeReplays.Load(),
		ResumeMisses:    s.resumeMisses.Load(),
		TiersComputed:   s.tiersComputed.Load(),
		Draining:        s.drainMode.Load(),
		Drains:          s.drains.Load(),
		DrainRejects:    s.drainRejects.Load(),
		QuotaRejects:    s.quotaRejects.Load(),
		AdmitParked:     s.admitParked.Load(),

		ExploreSessions:    s.exploreSessions.Load(),
		ExploreStates:      s.exploreStates.Load(),
		ExploreTransitions: s.exploreTransitions.Load(),
		ExploreForwards:    s.exploreForwards.Load(),
		ExploreViolations:  s.exploreViolations.Load(),

		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if st.UptimeSeconds > 0 {
		st.SessionsPerSec = float64(st.SessionsTotal) / st.UptimeSeconds
		st.SymbolsPerSec = float64(st.SymbolsTotal) / st.UptimeSeconds
	}
	s.tenantMu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	tcs := make(map[string]*tenantCounters, len(names))
	for _, name := range names {
		tcs[name] = s.tenants[name]
	}
	s.tenantMu.Unlock()
	if len(tcs) > 0 {
		active := s.adm.snapshotActive()
		st.Tenants = make(map[string]TenantStats, len(tcs))
		for name, tc := range tcs {
			st.Tenants[name] = TenantStats{
				Sessions:     tc.sessions.Load(),
				Active:       int64(active[name]),
				Accepts:      tc.accepts.Load(),
				Rejects:      tc.rejects.Load(),
				Busy:         tc.busy.Load(),
				QuotaRejects: tc.quota.Load(),
				Bytes:        tc.bytes.Load(),
			}
		}
	}
	return st
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Serve accepts connections on ln until Shutdown. It returns
// ErrServerClosed after a graceful shutdown and the accept error
// otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Shutdown stops accepting connections and waits for every in-flight
// session to deliver its verdict. If ctx expires first, remaining
// connections are force-closed and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// readFrame reads one frame with the configured deadline.
func (s *Server) readFrame(conn net.Conn, br *bufio.Reader) (byte, []byte, error) {
	if s.cfg.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	return readFrame(br, s.cfg.MaxFrame)
}

// armWrite refreshes the per-write deadline so a client that stops
// reading cannot park the handler forever.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// writeVerdict emits a verdict frame without touching the verdict
// counters (used when replaying a stored verdict to a resumed client).
func (s *Server) writeVerdict(conn net.Conn, bw *bufio.Writer, v Verdict) error {
	s.armWrite(conn)
	if err := writeFrame(bw, frameVerdict, appendVerdict(nil, v)); err != nil {
		return err
	}
	return bw.Flush()
}

// sendVerdict counts and emits a fresh verdict.
func (s *Server) sendVerdict(conn net.Conn, bw *bufio.Writer, v Verdict) error {
	switch {
	case v.Code == VerdictAccept:
		s.accepts.Add(1)
	case v.Code == VerdictReject:
		s.rejects.Add(1)
	case v.Draining():
		s.drainRejects.Add(1)
		s.busy.Add(1)
		s.protoErrs.Add(1)
	case v.Quota():
		s.quotaRejects.Add(1)
		s.busy.Add(1)
		s.protoErrs.Add(1)
	case v.Busy():
		s.busy.Add(1)
		s.protoErrs.Add(1)
	default:
		s.protoErrs.Add(1)
	}
	return s.writeVerdict(conn, bw, v)
}

func (s *Server) sendStats(conn net.Conn, bw *bufio.Writer) error {
	payload, err := json.Marshal(s.Stats())
	if err != nil {
		return err
	}
	s.armWrite(conn)
	if err := writeFrame(bw, frameStatsReply, payload); err != nil {
		return err
	}
	return bw.Flush()
}

func (s *Server) sendAck(conn net.Conn, bw *bufio.Writer, sym int, off int64) error {
	s.armWrite(conn)
	if err := writeFrame(bw, frameAck, appendAck(nil, sym, off)); err != nil {
		return err
	}
	return bw.Flush()
}

// handleConn serves one connection: any number of sessions back to back,
// with stats frames allowed between (and inside) them.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	bw := bufio.NewWriterSize(conn, 8<<10)

	for {
		if s.isClosed() {
			return
		}
		typ, payload, err := s.readFrame(conn, br)
		if err != nil {
			if err != io.EOF {
				s.event("read_error", "remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		switch typ {
		case frameStatsReq:
			if err := s.sendStats(conn, bw); err != nil {
				return
			}
		case frameDrain:
			// Admin frame: flip drain mode and answer with a stats frame
			// (which carries the resulting Draining bit).
			mode, n := binary.Uvarint(payload)
			if n <= 0 || n != len(payload) || mode > 1 {
				s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1,
					Msg: "drain: malformed payload"})
				return
			}
			if mode == 1 {
				s.Drain()
			} else {
				s.Undrain()
			}
			if err := s.sendStats(conn, bw); err != nil {
				return
			}
		case frameHello:
			h, herr := parseHello(payload)
			switch {
			case herr != nil:
				s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: herr.Error()})
				return
			case h.K < 1 || h.K > s.cfg.MaxK:
				s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1,
					Msg: fmt.Sprintf("hello: k=%d outside 1..%d", h.K, s.cfg.MaxK)})
				return
			}
			if s.drainMode.Load() && !h.Resume {
				// Draining refuses new work but keeps honoring resume
				// probes: the checkpointed sessions it still holds must be
				// able to finish or replay their stored verdicts.
				s.event("drain_reject", "tenant", h.Tenant, "remote", conn.RemoteAddr().String())
				v := DrainingVerdict("backend draining; redirect or retry elsewhere")
				s.countTenantVerdict(h.Tenant, v)
				if err := s.sendVerdict(conn, bw, v); err != nil {
					return
				}
				if !s.drainSession(conn, br, bw) {
					return
				}
				continue
			}
			if res := s.adm.admit(h.Tenant); res != admitOK {
				// Clean busy/quota rejection: deliver the verdict, absorb
				// the session's frames, and keep the connection usable so
				// the client can back off and retry without redialing.
				var v Verdict
				if res == admitQuota {
					v = QuotaVerdict(fmt.Sprintf("tenant %q at session cap (%d)", h.Tenant, s.cfg.TenantSessions))
					s.event("quota_reject", "tenant", h.Tenant, "kind", "sessions")
				} else {
					v = BusyVerdict(fmt.Sprintf("server at session capacity (%d)", s.cfg.MaxSessions))
				}
				s.countTenantVerdict(h.Tenant, v)
				if err := s.sendVerdict(conn, bw, v); err != nil {
					return
				}
				if !s.drainSession(conn, br, bw) {
					return
				}
				continue
			}
			// From here the hello owns an admitted session slot; every
			// path that does not reach runSession or runExploreSession
			// (whose defers release it) must hand the slot back itself.
			if h.Explore != nil {
				if !s.runExploreSession(conn, br, bw, h) {
					return
				}
				continue
			}
			var seed *resumeSeed
			if h.Token != "" {
				if h.Resume {
					var rerr error
					seed, rerr = s.resume.take(h.Token, h, func() { conn.Close() })
					if rerr != nil {
						s.adm.release(h.Tenant)
						s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1,
							Msg: rerr.Error()})
						return
					}
					if seed == nil {
						s.adm.release(h.Tenant)
						s.resumeMisses.Add(1)
						s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1,
							Msg: resumeMissPrefix + "unknown or expired session token"})
						return
					}
				} else {
					// A fresh hello reusing a token restarts that session
					// from scratch; any prior checkpoint is discarded.
					s.resume.drop(h.Token)
				}
			}
			if !s.runSession(conn, br, bw, h, seed) {
				return
			}
		default:
			s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1,
				Msg: fmt.Sprintf("unexpected frame type %#x", typ)})
			return
		}
	}
}

// drainSession absorbs the frames of a session whose verdict is already
// out, through its end frame, keeping the connection in a known-good state
// for the next session; any other frame closes the connection without a
// second verdict. It reports whether the connection survives.
func (s *Server) drainSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) bool {
	for {
		typ, _, err := s.readFrame(conn, br)
		if err != nil {
			return false
		}
		switch typ {
		case frameSymbols:
			// discard
		case frameEnd:
			return !s.isClosed()
		case frameStatsReq:
			if err := s.sendStats(conn, bw); err != nil {
				return false
			}
		default:
			return false
		}
	}
}

// runSession drives one session to its verdict on the connection
// goroutine. It reports whether the connection is still in a known-good
// state for another session.
func (s *Server) runSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, h Header, seed *resumeSeed) bool {
	// The caller admitted the session (adm.admit). The slot goes back to
	// the fair-share gate exactly once: before any verdict is written, so
	// a client holding its verdict never sees its session still active,
	// or on return when no verdict was written.
	id := s.sessionsTotal.Add(1)
	released := false
	releaseSlot := func() {
		if !released {
			released = true
			s.adm.release(h.Tenant)
		}
	}
	defer releaseSlot()
	if tc := s.tenantC(h.Tenant, true); tc != nil {
		tc.sessions.Add(1)
	}
	s.event("session_open", "session", id, "tenant", h.Tenant, "remote", conn.RemoteAddr().String(),
		"token", h.Token != "", "resume", h.Resume)

	// abort ends a session that gets no verdict of its own. Token sessions
	// keep their newest checkpoint in the resume store, so a reconnecting
	// client picks up from there.
	abort := func(err error) bool {
		s.sessionsAborted.Add(1)
		s.event("session_abort", "session", id, "tenant", h.Tenant, "err", err)
		return false
	}
	src := &frameSource{s: s, conn: conn, br: br, bw: bw, tenant: h.Tenant}
	if seed != nil {
		// Confirm the resume position first: the client skips its buffer
		// to this offset and replays from there.
		s.resumes.Add(1)
		if err := s.sendAck(conn, bw, seed.sym, seed.off); err != nil {
			return abort(err)
		}
		src.ckptSym, src.ckptOff, src.acked = seed.sym, seed.off, seed.off
		if seed.done != nil {
			// The session already ran to a verdict; the client evidently
			// lost it. The checker is deterministic, so the stored verdict
			// IS the verdict of the replayed stream — resend it and absorb
			// the tail.
			s.resumeReplays.Add(1)
			releaseSlot()
			if err := s.writeVerdict(conn, bw, *seed.done); err != nil {
				return abort(err)
			}
			return s.drainSession(conn, br, bw)
		}
	}

	v, err := s.check(h, seed, src, func() { conn.Close() })
	end := src.err == io.EOF
	if err == nil && !end {
		// The checker stopped early (rejection or undecodable input). Its
		// verdict answers the client's next symbols or end frame, whose
		// symbols are neither checked nor charged. Written now, it could
		// block on a client that writes its whole session before reading,
		// while that client blocks on a server no longer reading.
		var typ byte
		typ, _, err = src.frame()
		end = typ == frameEnd
	}
	var misplaced frameTypeError
	switch {
	case errors.Is(err, errByteQuota):
		// The tenant's byte bucket ran dry mid-stream: answer the frame
		// that overdrew it with the typed quota verdict. The session's
		// newest checkpoint (if any) survives, so the client can resume
		// once the bucket refills.
		s.event("quota_reject", "session", id, "tenant", h.Tenant, "kind", "bytes")
		v = QuotaVerdict(fmt.Sprintf("tenant %q over byte rate (%d B/s)", h.Tenant, s.cfg.TenantBytesPerSec))
	case errors.As(err, &misplaced):
		abort(err)
		releaseSlot()
		s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: err.Error()})
		return false
	case err != nil:
		return abort(err)
	default:
		s.resume.finish(h.Token, v, v.Symbol, v.Offset)
	}
	releaseSlot()
	s.countTenantVerdict(h.Tenant, v)
	s.event("verdict", "session", id, "tenant", h.Tenant, "code", v.Code.String(), "symbol", v.Symbol)
	if err := s.sendVerdict(conn, bw, v); err != nil {
		return abort(err)
	}
	if end {
		return !s.isClosed()
	}
	// The verdict answered a symbols frame: absorb the rest of the
	// session unchecked, so the connection stays usable.
	return s.drainSession(conn, br, bw)
}

// rejectVerdict builds a reject verdict, lifting the constraint code and
// cycle length out of the checker's structured rejection so clients get
// the witness classification without re-running the stream locally.
func rejectVerdict(symbol int, offset int64, prefix string, err error) Verdict {
	v := Verdict{Code: VerdictReject, Symbol: symbol, Offset: offset, Msg: prefix + err.Error()}
	var re *checker.RejectError
	if errors.As(err, &re) {
		v.Constraint = int(re.Constraint)
		v.CycleLen = re.CycleLen()
	}
	return v
}

// check decodes the session's symbols straight off src and steps a
// checker over them — fresh, or a clone of the session's checkpoint when
// resuming — until the end frame, a rejection or undecodable input, and
// returns that verdict. On token sessions it clones the checker every
// AckInterval symbols into the resume store, for src to ack after the
// client's next frame. Witness mode is on so rejections carry their
// constraint classification and cycle length back to the client. A
// non-nil error is src's: the session stopped before the checker reached
// a verdict.
func (s *Server) check(h Header, seed *resumeSeed, src *frameSource, kick func()) (Verdict, error) {
	var chk *checker.Checker
	var dec *descriptor.Decoder
	if seed != nil {
		chk = seed.chk
		dec = descriptor.NewDecoderAt(src, seed.off, seed.sym)
	} else {
		chk = checker.New(h.K).EnableWitness()
		if h.Params.Procs > 0 {
			chk.SetParams(h.Params)
		}
		if h.NoValues {
			chk.DisableValueCheck()
		}
		dec = descriptor.NewDecoder(src)
	}
	// Tier adjudication needs the decoded stream up to the rejection.
	// Resumed sessions lack the checkpointed prefix and NoValues sessions
	// run a checker whose rejections a value-aware replay would not
	// reproduce, so both stay untier-ed (missing tiers are always legal;
	// wrong tiers never are).
	collect := h.Tiered && !h.NoValues && seed == nil && s.cfg.TierLimit >= 0
	var stream descriptor.Stream
	attachTier := func(v Verdict) Verdict {
		if !collect {
			return v
		}
		w := witness.TierWitness(stream, h.K, h.Params)
		if w == nil {
			return v
		}
		res := w.Adjudicate(s.cfg.TierLimit)
		if !res.Checked {
			return v
		}
		v.Tiered = true
		v.Tier = int(res.Tier)
		v.ReorderStore, v.ReorderPast = -1, -1
		if res.Reorder != nil {
			v.ReorderStore, v.ReorderPast = res.Reorder.Store, res.Reorder.Past
		}
		s.tiersComputed.Add(1)
		return v
	}
	nextCkpt := dec.Count() + s.cfg.AckInterval
	for {
		off := dec.Offset()
		sym, err := dec.Next()
		if err == io.EOF {
			if ferr := chk.Finish(); ferr != nil {
				return attachTier(rejectVerdict(dec.Count(), dec.Offset(), "end of stream: ", ferr)), nil
			}
			return Verdict{Code: VerdictAccept, Symbol: -1, Offset: -1,
				Msg: fmt.Sprintf("%d symbols describe an acyclic constraint graph", dec.Count())}, nil
		}
		if err != nil {
			var de *descriptor.DecodeError
			if errors.As(err, &de) {
				return Verdict{Code: VerdictProtocolError, Symbol: de.Symbol, Offset: de.Offset,
					Msg: "decode: " + de.Msg}, nil
			}
			return Verdict{}, err
		}
		s.symbolsTotal.Add(1)
		if collect {
			if len(stream) < s.cfg.TierMaxSymbols {
				stream = append(stream, sym)
			} else {
				collect, stream = false, nil
			}
		}
		if serr := chk.Step(sym); serr != nil {
			return attachTier(rejectVerdict(dec.Count()-1, off, "", serr)), nil
		}
		if h.Token != "" && dec.Count() >= nextCkpt {
			nextCkpt = dec.Count() + s.cfg.AckInterval
			if s.resume.put(h.Token, h, chk.Clone(), dec.Count(), dec.Offset(), kick) {
				src.ckptSym, src.ckptOff = dec.Count(), dec.Offset()
			}
		}
	}
}

// errByteQuota stops a session whose symbols frame overdrew its tenant's
// byte bucket.
var errByteQuota = errors.New("scserve: tenant byte quota exhausted")

// frameTypeError is a frame that has no place inside a session.
type frameTypeError byte

func (e frameTypeError) Error() string {
	return fmt.Sprintf("unexpected frame type %#x inside session", byte(e))
}

// frameSource is the byte stream a session's decoder reads: the
// concatenated payloads of the session's symbols frames, one frame at a
// time. The next frame is read only once the current payload is decoded
// and checked, so TCP flow control is the session's backpressure and its
// memory is one frame beyond the checker's. Every server write inside a
// session follows the read of a client frame: stats replies and
// checkpoint acks here, the verdict in runSession.
type frameSource struct {
	s      *Server
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	tenant string

	buf []byte // unread rest of the current symbols payload
	// err is sticky once set: io.EOF for the end frame, errByteQuota, a
	// frameTypeError, or a wrapped transport error. Only the end frame
	// may be io.EOF, because the decoder takes io.EOF (and
	// io.ErrUnexpectedEOF) from its reader for the end of the stream.
	err error

	ckptSym int   // newest checkpoint stored in the resume store
	ckptOff int64 // its byte offset; 0 before any
	acked   int64 // byte offset of the newest checkpoint acked
}

// ReadByte implements io.ByteReader, the only method the decoder calls.
func (f *frameSource) ReadByte() (byte, error) {
	if len(f.buf) == 0 {
		if err := f.fill(); err != nil {
			return 0, err
		}
	}
	b := f.buf[0]
	f.buf = f.buf[1:]
	return b, nil
}

// Read makes a frameSource the io.Reader descriptor.NewDecoder takes.
func (f *frameSource) Read(p []byte) (int, error) {
	if len(f.buf) == 0 {
		if err := f.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	return n, nil
}

// fill reads frames until a symbols payload has bytes or the stream
// stops, charging each payload to the tenant and acking the newest
// checkpoint after it.
func (f *frameSource) fill() error {
	for len(f.buf) == 0 && f.err == nil {
		typ, payload, err := f.frame()
		switch {
		case err != nil:
			f.err = err
		case typ == frameEnd:
			f.err = io.EOF
		case !f.s.chargeTenant(f.tenant, len(payload)):
			f.err = errByteQuota
		default:
			if f.err = f.ack(); f.err == nil {
				f.buf = payload
			}
		}
	}
	return f.err
}

// frame reads the client's next symbols or end frame, answering stats
// requests (each followed by any pending ack) on the way.
func (f *frameSource) frame() (byte, []byte, error) {
	for {
		typ, payload, err := f.s.readFrame(f.conn, f.br)
		if err != nil {
			// Wrapped: a hang-up at a symbol boundary is not an end frame.
			return 0, nil, fmt.Errorf("read: %w", err)
		}
		switch typ {
		case frameSymbols, frameEnd:
			return typ, payload, nil
		case frameStatsReq:
			if err := f.s.sendStats(f.conn, f.bw); err != nil {
				return 0, nil, fmt.Errorf("stats: %w", err)
			}
			if err := f.ack(); err != nil {
				return 0, nil, err
			}
		default:
			return 0, nil, frameTypeError(typ)
		}
	}
}

// ack acks the newest stored checkpoint unless it already was.
func (f *frameSource) ack() error {
	if f.ckptOff <= f.acked {
		return nil
	}
	if err := f.s.sendAck(f.conn, f.bw, f.ckptSym, f.ckptOff); err != nil {
		return fmt.Errorf("ack: %w", err)
	}
	f.acked = f.ckptOff
	return nil
}

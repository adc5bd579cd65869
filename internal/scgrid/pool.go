package scgrid

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scverify/internal/scserve"
)

// Config tunes a Grid. The zero value gets sane defaults from New.
type Config struct {
	// ProbeInterval is how often healthy backends are health-probed (a
	// hello/verdict round trip on a throwaway session). Default 2s;
	// negative disables background probing (tests drive ProbeNow).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe end to end: dial, hello, verdict.
	// Default 2s.
	ProbeTimeout time.Duration
	// ReadmitDelay is the base delay before an ejected backend is probed
	// for re-admission; the actual delay is jittered over [d/2, d] so a
	// pool-wide outage doesn't re-admit every backend in lockstep.
	// Default 3s.
	ReadmitDelay time.Duration
	// MaxInFlight caps concurrently dispatched sessions per backend —
	// the client-side mirror of the server's MaxSessions, enforced before
	// dialing so the pool queues instead of bouncing off busy verdicts.
	// Default 32.
	MaxInFlight int
	// QueueDepth bounds sessions waiting for a free slot; session number
	// QueueDepth+1 is shed immediately. Default 64.
	QueueDepth int
	// QueueWait bounds how long an admitted session waits for a slot
	// before it is shed with the busy verdict — deadline-aware shedding
	// returns the capacity answer early rather than stacking latency on a
	// queue that isn't draining. Default 2s.
	QueueWait time.Duration
	// Timeout is the per-operation I/O deadline on backend connections
	// (dial, frame read, frame write). Default 10s.
	Timeout time.Duration
	// MaxAttempts bounds connection attempts per session operation.
	// Default 5.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the jittered exponential backoff
	// between attempts. Defaults 50ms and 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// MaxBuffer caps a session's replay buffer. Grid sessions buffer
	// their whole stream — failing over to a different backend means
	// replaying from byte zero — so this bounds the longest stream a
	// session may carry; beyond it the session degrades to a clean error.
	// Default 16 MiB.
	MaxBuffer int
	// PollEvery is the number of streamed bytes between ack polls.
	// Default 32 KiB.
	PollEvery int
	// Seed makes backoff jitter, probe jitter, and p2c draws
	// deterministic for tests; 0 seeds from the wall clock.
	Seed int64
	// Dial overrides the transport, e.g. faultnet's Dialer.DialContext
	// partially applied to "tcp". Defaults to a net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Log, when set, receives the grid's diagnostics as structured
	// dispatch events (ejections, re-admissions, drain transitions,
	// failovers) with backend attributes and, on ejection, the cause.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ReadmitDelay <= 0 {
		c.ReadmitDelay = 3 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
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
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return c
}

// errShed is the admission layer giving up on a slot within the queue
// deadline; it surfaces to callers as the busy verdict.
var errShed = errors.New("scgrid: session shed by admission control")

// errNoBackend means the healthy set is empty right now (retryable: a
// probe may re-admit a backend).
var errNoBackend = errors.New("scgrid: no healthy backend")

// backend is one scserve endpoint in the pool, with its health state and
// per-backend counters. inflight is the pool's client-side accounting of
// dispatched sessions (acquired slots), not the server's own gauge.
type backend struct {
	addr string

	inflight atomic.Int64

	sessions  atomic.Int64 // sessions dispatched here (incl. retries landing here)
	accepts   atomic.Int64
	rejects   atomic.Int64
	errors    atomic.Int64 // sessions that exhausted their retry budget here
	resumes   atomic.Int64 // reconnects that resumed from this backend's checkpoint
	failovers atomic.Int64 // sessions that arrived here fresh after another backend died
	probes    atomic.Int64
	ejections atomic.Int64

	mu        sync.Mutex
	healthy   bool      // guarded by mu
	draining  bool      // guarded by mu; healthy but refusing fresh hellos
	downSince time.Time // guarded by mu
	nextProbe time.Time // guarded by mu; for ejected backends: earliest re-admission probe
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

func (b *backend) isDraining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// tryAcquire reserves an in-flight slot if one is free.
func (b *backend) tryAcquire(cap int) bool {
	for {
		n := b.inflight.Load()
		if n >= int64(cap) {
			return false
		}
		if b.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (b *backend) release() { b.inflight.Add(-1) }

// BackendStats is one backend's slice of GridStats.
type BackendStats struct {
	Addr      string `json:"addr"`
	Healthy   bool   `json:"healthy"`
	Draining  bool   `json:"draining,omitempty"`
	InFlight  int64  `json:"in_flight"`
	Sessions  int64  `json:"sessions"`
	Accepts   int64  `json:"accepts"`
	Rejects   int64  `json:"rejects"`
	Errors    int64  `json:"errors"`
	Resumes   int64  `json:"resumes"`
	Failovers int64  `json:"failovers"`
	Probes    int64  `json:"probes"`
	Ejections int64  `json:"ejections"`
}

// String renders the operator-facing one-liner.
func (b BackendStats) String() string {
	state := "up"
	if !b.Healthy {
		state = "DOWN"
	} else if b.Draining {
		state = "draining"
	}
	return fmt.Sprintf("%s [%s]: %d sessions (%d accept, %d reject, %d error), %d in flight, %d resumes, %d failovers, %d probes, %d ejections",
		b.Addr, state, b.Sessions, b.Accepts, b.Rejects, b.Errors, b.InFlight, b.Resumes, b.Failovers, b.Probes, b.Ejections)
}

// GridStats snapshots the whole pool.
type GridStats struct {
	Backends []BackendStats `json:"backends"`
	Healthy  int            `json:"healthy"`
	Draining int            `json:"draining,omitempty"`
	Sheds    int64          `json:"sheds"`
	// DrainRedirects counts sessions that followed a draining verdict to
	// another backend without spending a retry attempt.
	DrainRedirects int64 `json:"drain_redirects,omitempty"`
}

// pool owns the backend set, the health prober, and the admission queue.
type pool struct {
	cfg      Config
	backends []*backend
	hashSeed maphash.Seed

	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu

	waiters        atomic.Int64
	sheds          atomic.Int64
	drainRedirects atomic.Int64

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newPool(addrs []string, cfg Config) *pool {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	p := &pool{
		cfg:      cfg,
		hashSeed: maphash.MakeSeed(),
		rng:      rand.New(rand.NewSource(seed)),
		stopc:    make(chan struct{}),
	}
	now := time.Now()
	for _, addr := range addrs {
		// Backends start healthy and are ejected by the first failed probe
		// or dial, so a cold pool serves immediately instead of waiting a
		// probe round.
		p.backends = append(p.backends, &backend{addr: addr, healthy: true, nextProbe: now})
	}
	return p
}

func (p *pool) event(ev string, args ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log.Info(ev, args...)
	}
}

// setDraining records that a backend announced (or stopped announcing)
// drain mode. Draining is observed, never assumed: it is set when a
// draining verdict comes back on a session or probe, and cleared when the
// backend accepts a session again — so a restarted backend rejoins
// placement within one probe round without any operator action.
func (p *pool) setDraining(b *backend, v bool) {
	b.mu.Lock()
	was := b.draining
	b.draining = v
	b.mu.Unlock()
	if was != v {
		p.event("backend_drain", "backend", b.addr, "draining", v)
	}
}

// jitter draws uniformly over [d/2, d].
func (p *pool) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return d/2 + time.Duration(p.rng.Int63n(int64(d/2)+1))
}

// intn draws from the pool's rng under its lock.
func (p *pool) intn(n int) int {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Intn(n)
}

// healthySet snapshots the currently healthy backends.
func (p *pool) healthySet() []*backend {
	hs := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.isHealthy() {
			hs = append(hs, b)
		}
	}
	return hs
}

// placeSet is the set new sessions are placed over: healthy backends that
// are not draining. When every healthy backend is draining (a full rolling
// restart mid-flight) it falls back to the healthy set — a draining
// backend still answers, so degraded placement beats refusing service.
// Because the fallback depends only on shared observable state, every
// dispatcher computes the same set modulo propagation lag; transient
// disagreement degrades to a resume miss and full replay, never to a
// wrong verdict.
func (p *pool) placeSet() []*backend {
	hs := p.healthySet()
	ps := make([]*backend, 0, len(hs))
	for _, b := range hs {
		if !b.isDraining() {
			ps = append(ps, b)
		}
	}
	if len(ps) == 0 {
		return hs
	}
	return ps
}

// rendezvous picks the highest-random-weight healthy backend for token:
// every dispatcher instance (grid clients, proxies) maps the same token
// to the same backend as long as the healthy set agrees, without any
// shared session table. When a backend is ejected only its own tokens
// remap; when it is re-admitted they map back.
func (p *pool) rendezvous(token string, hs []*backend) *backend {
	var best *backend
	var bestScore uint64
	for _, b := range hs {
		var h maphash.Hash
		h.SetSeed(p.hashSeed)
		h.WriteString(b.addr)
		h.WriteByte(0)
		h.WriteString(token)
		if s := h.Sum64(); best == nil || s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// Pinned returns the backend the token is currently pinned to, or nil
// when no backend is healthy. It does not reserve a slot. Pinning ranges
// over the placement set, so a draining backend's tokens remap to its
// peers — sessions already resumable there are kept in place by the
// session layer, which checks its own backend before re-pinning.
func (p *pool) pinned(token string) *backend {
	return p.rendezvous(token, p.placeSet())
}

// tryAcquireP2C reserves a slot by power-of-two-choices: two random
// healthy backends, the less loaded wins. If the winner is full it falls
// back to the least-loaded healthy backend with a free slot, so capacity
// anywhere in the pool is never stranded behind an unlucky draw.
func (p *pool) tryAcquireP2C() (*backend, error) {
	hs := p.placeSet()
	if len(hs) == 0 {
		return nil, errNoBackend
	}
	var pick *backend
	if len(hs) == 1 {
		pick = hs[0]
	} else {
		i := p.intn(len(hs))
		j := p.intn(len(hs) - 1)
		if j >= i {
			j++
		}
		pick = hs[i]
		if hs[j].inflight.Load() < pick.inflight.Load() {
			pick = hs[j]
		}
	}
	if pick.tryAcquire(p.cfg.MaxInFlight) {
		return pick, nil
	}
	var best *backend
	for _, b := range hs {
		if b.inflight.Load() < int64(p.cfg.MaxInFlight) && (best == nil || b.inflight.Load() < best.inflight.Load()) {
			best = b
		}
	}
	if best != nil && best.tryAcquire(p.cfg.MaxInFlight) {
		return best, nil
	}
	return nil, nil // all slots busy: admission decides whether to wait
}

// tryAcquirePinned reserves a slot on the token's rendezvous backend.
func (p *pool) tryAcquirePinned(token string) (*backend, error) {
	b := p.pinned(token)
	if b == nil {
		return nil, errNoBackend
	}
	if b.tryAcquire(p.cfg.MaxInFlight) {
		return b, nil
	}
	return nil, nil
}

// admitPoll is how often a queued session re-checks for a free slot.
const admitPoll = 2 * time.Millisecond

// acquire is admission control: it reserves a slot for a new session —
// pinned by token, or p2c when token is empty — queueing up to QueueWait
// when the pool is saturated. A full queue or an expired deadline sheds
// the session with errShed (the busy verdict); an empty healthy set is
// also waited out, since a probe may re-admit a backend within the
// deadline.
func (p *pool) acquire(token string, wait time.Duration) (*backend, error) {
	deadline := time.Now().Add(wait)
	queued := false
	defer func() {
		if queued {
			p.waiters.Add(-1)
		}
	}()
	for {
		var b *backend
		var err error
		if token == "" {
			b, err = p.tryAcquireP2C()
		} else {
			b, err = p.tryAcquirePinned(token)
		}
		if b != nil {
			return b, nil
		}
		if !queued {
			if p.waiters.Add(1) > int64(p.cfg.QueueDepth) {
				p.waiters.Add(-1)
				p.sheds.Add(1)
				return nil, fmt.Errorf("%w: wait queue full (%d waiting)", errShed, p.cfg.QueueDepth)
			}
			queued = true
		}
		if time.Now().After(deadline) {
			p.sheds.Add(1)
			if err == errNoBackend {
				return nil, fmt.Errorf("%w: no healthy backend within %s", errShed, wait)
			}
			return nil, fmt.Errorf("%w: no free slot within %s", errShed, wait)
		}
		time.Sleep(admitPoll)
	}
}

// eject marks a backend unhealthy after a failed dial or probe and
// schedules its jittered re-admission probe.
func (p *pool) eject(b *backend, cause error) {
	b.mu.Lock()
	was := b.healthy
	b.healthy = false
	if was {
		b.downSince = time.Now()
		b.ejections.Add(1)
	}
	b.nextProbe = time.Now().Add(p.jitter(p.cfg.ReadmitDelay))
	b.mu.Unlock()
	if was {
		p.event("backend_eject", "backend", b.addr, "err", cause)
	}
}

// readmit marks an ejected backend healthy again after a passed probe.
func (p *pool) readmit(b *backend) {
	b.mu.Lock()
	was := b.healthy
	b.healthy = true
	down := time.Since(b.downSince)
	b.mu.Unlock()
	if !was {
		p.event("backend_readmit", "backend", b.addr, "down", down.Round(time.Millisecond))
	}
}

// probe is one health check: dial, hello, empty stream, verdict. The
// empty synthetic session exercises the same path a real session takes —
// a backend that accepts TCP but cannot deliver verdicts is as dead as
// one that refuses to dial. A busy verdict counts as healthy: the backend
// is answering, just full.
func (p *pool) probe(b *backend) error {
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	conn, err := p.cfg.Dial(ctx, b.addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	cli := scserve.NewClient(conn, p.cfg.ProbeTimeout)
	v, err := cli.Check(scserve.SyntheticHeader(), nil)
	if err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	if v.Code != scserve.VerdictAccept && !v.Busy() {
		return fmt.Errorf("probe verdict: %s", v)
	}
	// The probe doubles as the drain detector: a draining verdict means
	// healthy-but-refusing-fresh-sessions; an accept or plain busy means
	// the backend (re)admits fresh sessions, clearing any stale drain mark.
	p.setDraining(b, v.Draining())
	return nil
}

// probeRound probes every backend that is due: healthy ones on the
// ProbeInterval cadence, ejected ones once their jittered re-admission
// delay has elapsed. Probes run concurrently so one stalled backend
// cannot delay the round past its own timeout.
func (p *pool) probeRound() {
	now := time.Now()
	var wg sync.WaitGroup
	for _, b := range p.backends {
		b.mu.Lock()
		due := !b.nextProbe.After(now)
		b.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			err := p.probe(b)
			b.mu.Lock()
			if err == nil {
				b.nextProbe = time.Now().Add(p.cfg.ProbeInterval)
			}
			b.mu.Unlock()
			if err != nil {
				p.eject(b, err)
			} else {
				p.readmit(b)
			}
		}(b)
	}
	wg.Wait()
}

// probeLoop drives probeRound until the pool closes.
func (p *pool) probeLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.ProbeInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-p.stopc:
			return
		case <-tick.C:
			p.probeRound()
		}
	}
}

func (p *pool) start() {
	if p.cfg.ProbeInterval < 0 {
		return
	}
	p.wg.Add(1)
	go p.probeLoop()
}

func (p *pool) close() {
	p.stopOnce.Do(func() { close(p.stopc) })
	p.wg.Wait()
}

// stats snapshots every backend plus the pool-level counters.
func (p *pool) stats() GridStats {
	st := GridStats{Sheds: p.sheds.Load(), DrainRedirects: p.drainRedirects.Load()}
	for _, b := range p.backends {
		bs := BackendStats{
			Addr:      b.addr,
			Healthy:   b.isHealthy(),
			Draining:  b.isDraining(),
			InFlight:  b.inflight.Load(),
			Sessions:  b.sessions.Load(),
			Accepts:   b.accepts.Load(),
			Rejects:   b.rejects.Load(),
			Errors:    b.errors.Load(),
			Resumes:   b.resumes.Load(),
			Failovers: b.failovers.Load(),
			Probes:    b.probes.Load(),
			Ejections: b.ejections.Load(),
		}
		if bs.Healthy {
			st.Healthy++
		}
		if bs.Draining {
			st.Draining++
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}

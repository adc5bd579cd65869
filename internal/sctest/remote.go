package sctest

import (
	"fmt"

	"scverify/internal/descriptor"
	"scverify/internal/history"
	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
)

// Session is one open remote checking session: the surface a single
// scserve endpoint and a scgrid fabric have in common.
type Session interface {
	SendBytes(raw []byte) error
	Finish() (scserve.Verdict, error)
	Close()
}

// Opener opens one remote checking session for a header. Every remote
// adjudication path goes through one — the observer or lowering still
// runs locally, and the service's verdict decides — while CheckRun and
// (*history.Lowering).Check stay the in-process reference. An Opener
// must be safe for concurrent campaign workers.
type Opener func(scserve.Header) (Session, error)

// RetryOpener opens each session on its own fault-tolerant RetryClient to
// addr, closed with the session, so a session survives connection loss by
// resuming from the server's last checkpoint. cfg tunes backoff, attempt
// budget, replay buffering and (via cfg.Dial) the transport itself, which
// is how the chaos tests route sessions through a fault-injected link.
func RetryOpener(addr string, cfg scserve.RetryConfig, opts ...CheckOpt) Opener {
	return func(h scserve.Header) (Session, error) {
		for _, o := range opts {
			o(&h)
		}
		rc := scserve.NewRetryClient(addr, cfg)
		sess, err := rc.Session(h)
		if err != nil {
			rc.Close()
			return nil, err
		}
		return retrySession{sess, rc}, nil
	}
}

// retrySession closes its RetryClient with the session.
type retrySession struct {
	*scserve.RetrySession
	rc *scserve.RetryClient
}

func (s retrySession) Close() { s.rc.Close() }

// GridOpener dispatches each session through g as a tokened grid session
// placed on a healthy backend. Campaign workers share the Grid, so a
// campaign fans out across the pool. Fault semantics are the grid's: a
// backend blip resumes from the checkpoint, a backend death fails over to
// a live backend with a full replay, and saturation sheds with the busy
// verdict.
func GridOpener(g *scgrid.Grid, opts ...CheckOpt) Opener {
	return func(h scserve.Header) (Session, error) {
		h.Token = scserve.NewToken()
		for _, o := range opts {
			o(&h)
		}
		sess, err := g.Session(h)
		if err != nil {
			return nil, err
		}
		return sess, nil
	}
}

// CheckRun adjudicates one run remotely, for use as Config.Check: the
// observer runs over the recorded run and its descriptor stream is shipped
// over one session.
func (open Opener) CheckRun(run *protocol.Run, tgt registry.Target) error {
	// The session header announces the bandwidth bound k up front.
	h := scserve.Header{K: tgt.K(), Params: run.Protocol.Params()}
	return open.ship(h, func(emit func(descriptor.Symbol) error) error {
		obs := observer.New(run.Protocol, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize}, emit)
		for _, step := range run.Steps {
			if err := obs.Step(step.Transition); err != nil {
				return err
			}
		}
		return obs.Finish()
	})
}

// CheckHistory adjudicates one lowered history remotely, for use as
// HistoryConfig.Check.
func (open Opener) CheckHistory(l *history.Lowering) error {
	k := l.K
	if k < 1 {
		// An empty lowering has bandwidth 0; the wire protocol requires
		// k >= 1 and any k accepts an empty stream.
		k = 1
	}
	return open.ship(scserve.Header{K: k, Params: l.Params}, func(emit func(descriptor.Symbol) error) error {
		for _, sym := range l.Stream {
			if err := emit(sym); err != nil {
				return err
			}
		}
		return nil
	})
}

// frameBatch is the payload size symbols are batched to per send.
const frameBatch = 16 << 10

// ship opens one session for h, streams the symbols produce emits in
// frame-sized batches, and returns the verdict's error: nil on accept, a
// *scserve.VerdictError otherwise. Transport failures are prefixed
// "sctest: remote" so they are never mistaken for verdicts.
func (open Opener) ship(h scserve.Header, produce func(emit func(descriptor.Symbol) error) error) error {
	sess, err := open(h)
	if err != nil {
		return fmt.Errorf("sctest: remote: %w", err)
	}
	defer sess.Close()
	var buf []byte
	var sendErr error
	emit := func(sym descriptor.Symbol) error {
		buf = descriptor.AppendBinary(buf, sym)
		if len(buf) < frameBatch {
			return nil
		}
		sendErr = sess.SendBytes(buf)
		buf = buf[:0]
		return sendErr
	}
	if err := produce(emit); err != nil {
		if sendErr != nil {
			return fmt.Errorf("sctest: remote: %w", sendErr)
		}
		return err
	}
	if len(buf) > 0 {
		if err := sess.SendBytes(buf); err != nil {
			return fmt.Errorf("sctest: remote: %w", err)
		}
	}
	v, err := sess.Finish()
	if err != nil {
		return fmt.Errorf("sctest: remote: %w", err)
	}
	return v.Err()
}

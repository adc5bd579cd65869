package scserve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"scverify/internal/mc"
	"scverify/internal/registry"
)

// exploreReportInterval paces unsolicited progress reports so the
// coordinator's credit view and the operator's per-shard progress stay
// fresh without flooding the wire. Idle transitions additionally publish
// a report immediately — that report, ordered after the engine's last
// emitted items on the same stream, is what quiescence detection runs on.
const exploreReportInterval = 50 * time.Millisecond

// runExploreSession drives one distributed-exploration shard session: it
// builds the registry target named in the hello's explore extension,
// runs an mc.Explorer over it, and relays items, reports, and violations
// between the engine and the coordinator. It reports whether the
// connection is still in a known-good state for another session.
//
// The verdict discipline mirrors symbol sessions: the only accept this
// session ever sends is the answer to the coordinator's end frame, after
// the engine has stopped and its final credit report is on the wire.
// Everything abnormal — bad target, engine failure, write error — ends in
// a protocol-error verdict or a dead connection, both of which the
// coordinator degrades to an incomplete grid verdict, never a verified.
func (s *Server) runExploreSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, h Header) bool {
	id := s.sessionsTotal.Add(1)
	defer s.adm.release(h.Tenant)
	if tc := s.tenantC(h.Tenant, true); tc != nil {
		tc.sessions.Add(1)
	}
	eh := h.Explore
	s.exploreSessions.Add(1)
	s.event("explore_open", "session", id, "tenant", h.Tenant, "remote", conn.RemoteAddr().String(),
		"protocol", eh.Protocol, "shard", eh.Shard, "shards", len(eh.Shards))

	fail := func(msg string) bool {
		s.sendVerdict(conn, bw, Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: msg})
		return false
	}

	// The engine sizes its observer and checker by the target's pool,
	// which grows with p·b and the queue capacity, so both are checked
	// against the hello's k (bounded by MaxK) before anything is built.
	// Every target's pool exceeds p and b, so a larger p or b could never
	// match k.
	if h.Params.Procs > h.K || h.Params.Blocks > h.K {
		return fail(fmt.Sprintf("explore: hello p=%d b=%d exceed its k=%d", h.Params.Procs, h.Params.Blocks, h.K))
	}
	target, err := registry.Build(eh.Protocol, registry.Options{Params: h.Params, QueueCap: eh.QueueCap})
	if err != nil {
		return fail("explore: " + err.Error())
	}
	if k := target.K(); k != h.K {
		return fail(fmt.Sprintf("explore: hello k=%d but target %q has k=%d", h.K, eh.Protocol, k))
	}

	maxStates := eh.MaxStates
	if maxStates == 0 || maxStates > s.cfg.ExploreMaxStates {
		maxStates = s.cfg.ExploreMaxStates
	}

	// All frame writes below share one mutex: the engine emits from its
	// worker goroutines, the report ticker from its own, and the read loop
	// answers stats requests. Write failures close the connection so the
	// read loop observes the death promptly.
	var writeMu sync.Mutex
	writeErr := func(err error) {
		if err != nil {
			conn.Close()
		}
	}
	send := func(typ byte, payload []byte) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		s.armWrite(conn)
		if err := writeFrame(bw, typ, payload); err != nil {
			return err
		}
		return bw.Flush()
	}

	var x *mc.Explorer
	sendReport := func() error {
		return send(frameExploreRep, AppendExploreReport(nil, x.Report()))
	}

	x, err = mc.NewExplorer(target.Protocol, mc.ProductOptions{PoolSize: target.PoolSize, Generator: target.Generator}, mc.ExplorerConfig{
		Shard:     eh.Shard,
		ShardIDs:  eh.Shards,
		Workers:   s.cfg.ExploreWorkers,
		MaxStates: maxStates,
		MaxDepth:  eh.MaxDepth,
		Exact:     eh.Mode == ExploreModeExact,
		Audit:     eh.Mode == ExploreModeAudit,
		StepDelay: s.cfg.ExploreStepDelay,
		Emit: func(items []mc.Item) {
			for len(items) > 0 {
				n := len(items)
				if n > maxExploreItems {
					n = maxExploreItems
				}
				if err := send(frameExploreFwd, AppendExploreItems(nil, items[:n])); err != nil {
					writeErr(err)
					return
				}
				s.exploreForwards.Add(int64(n))
				items = items[n:]
			}
		},
		OnViolation: func(path []int, verr error) {
			s.exploreViolations.Add(1)
			s.event("explore_violation", "session", id, "depth", len(path))
			writeErr(send(frameExploreViol, AppendExploreViolation(nil, path, verr.Error())))
		},
		OnIdle: func() {
			writeErr(sendReport())
		},
	})
	if err != nil {
		return fail("explore: " + err.Error())
	}
	defer x.Stop()

	// The first report doubles as the ready signal: the coordinator seeds
	// shard 0 only after every shard has one.
	if err := sendReport(); err != nil {
		s.sessionsAborted.Add(1)
		return false
	}

	tickerDone := make(chan struct{})
	var tickerWG sync.WaitGroup
	tickerWG.Add(1)
	go func() {
		defer tickerWG.Done()
		tick := time.NewTicker(exploreReportInterval)
		defer tick.Stop()
		for {
			select {
			case <-tickerDone:
				return
			case <-tick.C:
				if err := sendReport(); err != nil {
					return
				}
			}
		}
	}()
	stopTicker := func() {
		close(tickerDone)
		tickerWG.Wait()
	}

	settle := func() {
		r := x.Report()
		s.exploreStates.Add(r.States)
		s.exploreTransitions.Add(r.Transitions)
	}

	for {
		typ, payload, err := s.readFrame(conn, br)
		if err != nil {
			stopTicker()
			x.Stop()
			settle()
			s.sessionsAborted.Add(1)
			s.event("explore_abort", "session", id, "tenant", h.Tenant, "err", err)
			return false
		}
		switch typ {
		case frameExplore:
			items, perr := ParseExploreItems(payload)
			if perr != nil {
				stopTicker()
				x.Stop()
				settle()
				return fail(perr.Error())
			}
			x.Deliver(items)
		case frameEnd:
			stopTicker()
			x.Stop()
			settle()
			if err := sendReport(); err != nil {
				s.sessionsAborted.Add(1)
				return false
			}
			v := Verdict{Code: VerdictAccept, Symbol: -1, Offset: -1, Msg: "explore session closed"}
			s.countTenantVerdict(h.Tenant, v)
			s.event("verdict", "session", id, "tenant", h.Tenant, "code", v.Code.String())
			if err := s.sendVerdict(conn, bw, v); err != nil {
				s.sessionsAborted.Add(1)
				return false
			}
			return !s.isClosed()
		case frameStatsReq:
			// Stats go through the shared write mutex: the report ticker
			// and engine emits are live while the read loop answers these.
			payload, merr := json.Marshal(s.Stats())
			if merr == nil {
				merr = send(frameStatsReply, payload)
			}
			if merr != nil {
				stopTicker()
				x.Stop()
				settle()
				s.sessionsAborted.Add(1)
				return false
			}
		default:
			stopTicker()
			x.Stop()
			settle()
			s.sessionsAborted.Add(1)
			return fail(fmt.Sprintf("unexpected frame type %#x inside explore session", typ))
		}
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/scserve"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

// serveSize fixes the serve-long inputs.
type serveSize struct {
	protocol string
	params   trace.Params
	runs     int // distinct streams, observed and marshalled at set-up
	steps    int // protocol steps per run
	// sweepSymbols is the stream length of the traced run's size sweep;
	// sweepSteps protocol steps must yield at least that many symbols.
	sweepSymbols, sweepSteps int
}

var serveLongSize = serveSize{
	protocol:     "directory",
	params:       trace.Params{Procs: 4, Blocks: 2, Values: 2},
	runs:         8,
	steps:        10000,
	sweepSymbols: 64 << 10,
	sweepSteps:   72000,
}

const (
	// serveCallers is serve-long's caller count, one connection each.
	serveCallers = 2
	// sendChunk is the bytes per SendBytes call, the size sctest's remote
	// checkers batch to.
	sendChunk = 16 << 10
	// ackInterval is scserve's default checkpoint interval on token
	// sessions; the replay clones the checker at the same positions.
	ackInterval = 1024
)

// serveLong streams long SC runs through scserve sessions: the
// per-symbol service path (frame I/O, decode, checker step, checkpoint
// clone) with session set-up negligible.
func serveLong(sz serveSize) workload {
	return workload{
		name:    "serve-long",
		clients: serveCallers,
		warmup:  warmupTime,
		setup:   func(seed int64) (instance, error) { return setupServe(sz, seed) },
	}
}

// server is one in-process scserve.Server on a loopback listener.
type server struct {
	srv  *scserve.Server
	addr string
	done chan error
}

func startServer(cfg scserve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: scserve.New(cfg), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

type serveRun struct {
	wire    []byte
	symbols int
}

type serveInst struct {
	sz    serveSize
	seed  int64
	hdr   scserve.Header
	runs  []serveRun
	srv   *server
	conns []*scserve.Client

	sessions atomic.Int64 // accepted sessions, warm-up included
	symbols  atomic.Int64 // symbols of those sessions
	failures atomic.Int64
	acked    []int // per caller: checkpoints acked over its sessions
}

// observe records one random run of the target as a descriptor stream.
func observe(tgt registry.Target, steps int, seed int64) (descriptor.Stream, int, error) {
	run := protocol.RandomRun(tgt.Protocol, steps, seed)
	return witness.Record(run, tgt)
}

func setupServe(sz serveSize, seed int64) (*serveInst, error) {
	tgt, err := registry.Build(sz.protocol, registry.Options{Params: sz.params})
	if err != nil {
		return nil, err
	}
	inst := &serveInst{sz: sz, seed: seed}
	for i := 0; i < sz.runs; i++ {
		stream, k, err := observe(tgt, sz.steps, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		if err := checker.Check(stream, k); err != nil {
			return nil, wrongf("%s run %d: local checker rejects an SC run: %v", sz.protocol, i, err)
		}
		inst.hdr = scserve.Header{K: k, Params: sz.params}
		inst.runs = append(inst.runs, serveRun{wire: descriptor.Marshal(stream), symbols: len(stream)})
	}
	if inst.srv, err = startServer(scserve.Config{}); err != nil {
		return nil, err
	}
	for c := 0; c < serveCallers; c++ {
		cli, err := scserve.DialTimeout(inst.srv.addr, 30*time.Second)
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.conns = append(inst.conns, cli)
	}
	inst.acked = make([]int, serveCallers)
	return inst, nil
}

func (s *serveInst) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.stop()
	}
}

func (s *serveInst) request(c int, req int64, tr *tracer) (float64, bool, error) {
	r := s.runs[req%int64(len(s.runs))]
	h := s.hdr
	h.Token = fmt.Sprintf("serve-long-%d-%d", s.seed, req)

	root := tr.begin("scserve.session", -1, req)
	id := tr.begin("scserve.Client.Session", root, req)
	sess, err := s.conns[c].Session(h)
	tr.end(id)
	for off := 0; err == nil && off < len(r.wire); off += sendChunk {
		id := tr.begin("scserve.Session.SendBytes", root, req)
		err = sess.SendBytes(r.wire[off:min(off+sendChunk, len(r.wire))])
		tr.end(id)
	}
	var v scserve.Verdict
	if err == nil {
		id := tr.begin("scserve.Session.Finish", root, req)
		v, err = sess.Finish()
		tr.end(id)
	}
	tr.end(root)
	switch {
	case err != nil:
		return s.failed(c, err)
	case v.Busy():
		s.failures.Add(1)
		return 0, true, nil
	case v.Code != scserve.VerdictAccept:
		return 0, false, wrongf("serve-long session %d: SC run got %s", req, v)
	}
	if sym, _ := sess.Acked(); sym > 0 {
		s.acked[c] += sym / ackInterval
	}
	s.sessions.Add(1)
	s.symbols.Add(int64(r.symbols))
	return float64(r.symbols), false, nil
}

// failed counts a transport failure and redials the caller's connection,
// whose framing state is unknown after it.
func (s *serveInst) failed(c int, err error) (float64, bool, error) {
	s.failures.Add(1)
	s.conns[c].Close()
	if cli, derr := scserve.DialTimeout(s.srv.addr, 30*time.Second); derr == nil {
		s.conns[c] = cli
	}
	return 0, true, nil
}

func (s *serveInst) check() error {
	st := s.srv.srv.Stats()
	if st.Rejects != 0 {
		return wrongf("serve-long: server rejected %d SC sessions", st.Rejects)
	}
	if s.failures.Load() == 0 && (st.Accepts != s.sessions.Load() || st.SymbolsTotal != s.symbols.Load()) {
		return wrongf("serve-long: server counted %d accepts / %d symbols, callers saw %d / %d",
			st.Accepts, st.SymbolsTotal, s.sessions.Load(), s.symbols.Load())
	}
	return nil
}

// replayCost is the decode, step and clone time of one stream replayed
// the way a token session's checker goroutine processes it.
type replayCost struct {
	decode, step, clone time.Duration
	clones              int
}

func (c replayCost) total() time.Duration { return c.decode + c.step + c.clone }

// replay decodes wire with descriptor.Decoder (behind a reader without
// ReadByte, so the decoder buffers as it does over the server's pipe) and
// steps a witness-mode checker over it, cloning every ackInterval symbols.
func replay(wire []byte, h scserve.Header, tr *tracer, req int64) (replayCost, descriptor.Stream, error) {
	var rc replayCost
	root := tr.begin("bench.replay", -1, req)
	defer tr.end(root)
	id := tr.begin("descriptor.Decoder.Next", root, req)
	dec := descriptor.NewDecoder(struct{ io.Reader }{bytes.NewReader(wire)})
	var syms descriptor.Stream
	for {
		sym, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rc, nil, wrongf("replay: decode: %v", err)
		}
		syms = append(syms, sym)
	}
	rc.decode = tr.endN(id, len(syms))
	chk := checker.New(h.K).EnableWitness()
	chk.SetParams(h.Params)
	for start := 0; start < len(syms); start += ackInterval {
		end := min(start+ackInterval, len(syms))
		id := tr.begin("checker.Step", root, req)
		for _, sym := range syms[start:end] {
			if err := chk.Step(sym); err != nil {
				return rc, nil, wrongf("replay: checker rejects an SC stream: %v", err)
			}
		}
		rc.step += tr.endN(id, end-start)
		if end-start == ackInterval {
			id := tr.begin("checker.Clone", root, req)
			sinkChecker = chk.Clone()
			rc.clone += tr.end(id)
			rc.clones++
		}
	}
	if err := chk.Finish(); err != nil {
		return rc, nil, wrongf("replay: checker rejects an SC stream at its end: %v", err)
	}
	return rc, syms, nil
}

func (s *serveInst) layers(tr *traceRun) (map[string]float64, error) {
	sp := tr.traced.spans
	m := map[string]float64{
		"scserve.session_open_us": quantile(sp.durs("scserve.Client.Session"), 0.5),
		"scserve.finish_p50_us":   quantile(sp.durs("scserve.Session.Finish"), 0.5),
		"scserve.finish_p99_us":   quantile(sp.durs("scserve.Session.Finish"), 0.99),
	}
	sendNs, _ := sp.total("scserve.Session.SendBytes")
	m["scserve.send_ns_per_symbol"] = ratio(sendNs, tr.traced.units)
	acked, sessions := 0, s.sessions.Load()
	for _, a := range s.acked {
		acked += a
	}
	m["scserve.acked_checkpoints_per_session"] = ratio(float64(acked), float64(sessions))

	// Replay every stream to split the server's per-symbol work into
	// decode, step and clone; the session wall time they leave over is the
	// frame, pipe and handoff remainder no public call reaches.
	perRun := make([]time.Duration, len(s.runs))
	var cost replayCost
	symbols := 0
	var jobs []checkJob
	for r := 0; r < probeReps; r++ {
		for i, run := range s.runs {
			rc, syms, err := replay(run.wire, s.hdr, tr.probe, int64(i))
			if err != nil {
				return nil, err
			}
			perRun[i] += rc.total() / probeReps
			cost.decode += rc.decode
			cost.step += rc.step
			cost.clone += rc.clone
			cost.clones += rc.clones
			symbols += len(syms)
			if r == 0 {
				jobs = append(jobs, checkJob{stream: syms, k: s.hdr.K, params: s.hdr.Params, witness: true})
			}
		}
	}
	m["descriptor.decode_ns_per_symbol"] = ratio(float64(cost.decode), float64(symbols))
	m["checker.step_ns_per_symbol"] = ratio(float64(cost.step), float64(symbols))
	m["checker.clone_us"] = ratio(float64(cost.clone)/1e3, float64(cost.clones))
	m["checker.allocs_per_symbol"] = stepAllocs(jobs)

	var wall, attributed float64
	for _, x := range sp {
		if x.Name == "scserve.session" {
			wall += float64(x.dur())
			attributed += float64(perRun[x.Req%int64(len(s.runs))])
		}
	}
	if wall > 0 {
		m["scserve.unattributed_share"] = 1 - attributed/wall
	}

	if err := sizeSweep(s.sz, s.seed, tr.probe, m); err != nil {
		return nil, err
	}
	return m, nil
}

// sizeSweep times checker.Step over the windows [0,1k), [1k,4k),
// [4k,16k) and [16k,64k) of one long stream at fixed k, into m: the
// paper's checker is a finite automaton, so ns/symbol should not grow
// with stream length.
func sizeSweep(sz serveSize, seed int64, tr *tracer, m map[string]float64) error {
	tgt, err := registry.Build(sz.protocol, registry.Options{Params: sz.params})
	if err != nil {
		return err
	}
	stream, k, err := observe(tgt, sz.sweepSteps, seed*1000+999)
	if err != nil {
		return err
	}
	if len(stream) < sz.sweepSymbols {
		return fmt.Errorf("size sweep: %d steps gave %d symbols, need %d", sz.sweepSteps, len(stream), sz.sweepSymbols)
	}
	names := []string{".at1k", ".at4k", ".at16k", ".at64k"}
	bounds := []int{0, sz.sweepSymbols / 64, sz.sweepSymbols / 16, sz.sweepSymbols / 4, sz.sweepSymbols}
	const reps = 5
	per := make([][]float64, len(names))
	for r := 0; r < reps; r++ {
		root := tr.begin("bench.sweep", -1, int64(r))
		chk := checker.New(k)
		chk.SetParams(sz.params)
		for w := range names {
			win := stream[bounds[w]:bounds[w+1]]
			id := tr.begin("checker.Step", root, int64(r))
			for _, sym := range win {
				if err := chk.Step(sym); err != nil {
					return wrongf("size sweep: checker rejects an SC stream: %v", err)
				}
			}
			per[w] = append(per[w], float64(tr.endN(id, len(win)))/float64(len(win)))
		}
		tr.end(root)
	}
	for w, n := range names {
		m["checker.step_ns_per_symbol"+n] = median(per[w])
	}
	return nil
}

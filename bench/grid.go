package main

import (
	"errors"
	"sync/atomic"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/registry"
	"scverify/internal/scgrid"
	"scverify/internal/scserve"
	"scverify/internal/spectrum"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

// gridSize fixes the grid-short-tiered inputs.
type gridSize struct {
	protocol    string
	params      trace.Params
	runs, steps int
}

var gridShortSize = gridSize{
	protocol: "storebuffer",
	params:   trace.Params{Procs: 2, Blocks: 2, Values: 1},
	runs:     256,
	steps:    24,
}

// gridBackends is the number of in-process scserve backends.
const gridBackends = 2

// gridShortTiered sends many short tiered sessions through scgrid: the
// per-session cost (placement, dial, hello/verdict round trip) and tier
// adjudication on rejections, with little checker work.
func gridShortTiered(sz gridSize) workload {
	return workload{
		name:    "grid-short-tiered",
		clients: 2,
		warmup:  warmupTime,
		setup:   func(seed int64) (instance, error) { return setupGrid(sz, seed) },
	}
}

// gridItem is one pre-observed run with the verdict any conforming
// backend must return for it, computed locally at set-up.
type gridItem struct {
	stream descriptor.Stream
	wire   []byte
	want   scserve.Verdict
}

type gridInst struct {
	sz      gridSize
	hdr     scserve.Header
	items   []gridItem
	servers []*server
	grid    *scgrid.Grid

	accepts, rejects atomic.Int64 // verdicts seen, warm-up included
}

// expect computes a run's verdict the way a tiered scserve session does:
// a witness-mode checker with the header's params, then, on rejection,
// the canonical TierWitness adjudication at the server's default limit.
func expect(stream descriptor.Stream, h scserve.Header) scserve.Verdict {
	chk := checker.New(h.K).EnableWitness()
	chk.SetParams(h.Params)
	v := scserve.Verdict{Code: scserve.VerdictAccept, Symbol: -1}
	var err error
	for i, sym := range stream {
		if err = chk.Step(sym); err != nil {
			v.Symbol = i
			break
		}
	}
	if err == nil {
		if err = chk.Finish(); err == nil {
			return v
		}
		v.Symbol = len(stream)
	}
	v.Code = scserve.VerdictReject
	var re *checker.RejectError
	if errors.As(err, &re) {
		v.Constraint = int(re.Constraint)
	}
	if w := witness.TierWitness(stream, h.K, h.Params); w != nil {
		if res := w.Adjudicate(0); res.Checked {
			v.Tiered, v.Tier = true, int(res.Tier)
		}
	}
	return v
}

func setupGrid(sz gridSize, seed int64) (*gridInst, error) {
	tgt, err := registry.Build(sz.protocol, registry.Options{Params: sz.params})
	if err != nil {
		return nil, err
	}
	inst := &gridInst{sz: sz}
	for i := 0; i < sz.runs; i++ {
		stream, k, err := observe(tgt, sz.steps, seed*100000+int64(i))
		if err != nil {
			return nil, err
		}
		inst.hdr = scserve.Header{K: k, Params: sz.params, Tiered: true}
		inst.items = append(inst.items, gridItem{
			stream: stream,
			wire:   descriptor.Marshal(stream),
			want:   expect(stream, inst.hdr),
		})
	}
	var addrs []string
	for b := 0; b < gridBackends; b++ {
		s, err := startServer(scserve.Config{})
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.servers = append(inst.servers, s)
		addrs = append(addrs, s.addr)
	}
	if inst.grid, err = scgrid.New(addrs, scgrid.Config{Seed: seed + 1}); err != nil {
		inst.close()
		return nil, err
	}
	inst.grid.ProbeNow()
	return inst, nil
}

func (g *gridInst) close() {
	if g.grid != nil {
		g.grid.Close()
	}
	for _, s := range g.servers {
		s.stop()
	}
}

func (g *gridInst) request(_ int, req int64, tr *tracer) (float64, bool, error) {
	it := &g.items[req%int64(len(g.items))]

	root := tr.begin("scgrid.session", -1, req)
	defer tr.end(root)
	id := tr.begin("scgrid.Grid.Session", root, req)
	sess, err := g.grid.Session(g.hdr)
	tr.end(id)
	if err != nil {
		return 0, true, nil
	}
	id = tr.begin("scgrid.Session.SendBytes", root, req)
	err = sess.SendBytes(it.wire)
	tr.end(id)
	if err != nil {
		sess.Close()
		return 0, true, nil
	}
	id = tr.begin("scgrid.Session.Finish", root, req)
	v, err := sess.Finish()
	tr.end(id)
	if err != nil || v.Busy() {
		return 0, true, nil
	}
	w := it.want
	if v.Code != w.Code || v.Symbol != w.Symbol || v.Tiered != w.Tiered || v.Tier != w.Tier ||
		(w.Code == scserve.VerdictReject && v.Constraint != w.Constraint) {
		return 0, false, wrongf("grid-short-tiered session %d: got %s, want %s", req, v, w)
	}
	if v.Code == scserve.VerdictReject {
		g.rejects.Add(1)
	} else {
		g.accepts.Add(1)
	}
	return 1, false, nil
}

// check reconciles the verdicts the callers saw with the grid's and the
// backends' own counters (health probes are accepted sessions, so only
// the backends' rejects are exact).
func (g *gridInst) check() error {
	var accepts, rejects, srvRejects int64
	for _, b := range g.grid.Stats().Backends {
		accepts += b.Accepts
		rejects += b.Rejects
	}
	for _, s := range g.servers {
		srvRejects += s.srv.Stats().Rejects
	}
	if accepts != g.accepts.Load() || rejects != g.rejects.Load() || srvRejects != g.rejects.Load() {
		return wrongf("grid-short-tiered: callers saw %d accepts / %d rejects, grid counted %d / %d, backends %d rejects",
			g.accepts.Load(), g.rejects.Load(), accepts, rejects, srvRejects)
	}
	return nil
}

func (g *gridInst) layers(tr *traceRun) (map[string]float64, error) {
	sp := tr.traced.spans
	st := g.grid.Stats()
	m := map[string]float64{
		"scgrid.send_us":         quantile(sp.durs("scgrid.Session.SendBytes"), 0.5),
		"scgrid.finish_p50_us":   quantile(sp.durs("scgrid.Session.Finish"), 0.5),
		"scgrid.finish_p99_us":   quantile(sp.durs("scgrid.Session.Finish"), 0.99),
		"scgrid.sheds":           float64(st.Sheds),
		"scgrid.drain_redirects": float64(st.DrainRedirects),
	}
	var tiers, rejects int64
	for _, s := range g.servers {
		ss := s.srv.Stats()
		tiers += ss.TiersComputed
		rejects += ss.Rejects
	}
	m["scserve.tier_share"] = ratio(float64(tiers), float64(rejects))

	// Tier adjudication runs inside the backend; time the same two public
	// calls it makes on every rejected stream.
	var core, adj []float64
	for r := 0; r < probeReps; r++ {
		for i := range g.items {
			it := &g.items[i]
			if it.want.Code != scserve.VerdictReject {
				continue
			}
			root := tr.probe.begin("bench.tier", -1, int64(i))
			var w *witness.Witness
			d := tr.probe.call("witness.TierWitness", root, int64(i), func() {
				w = witness.TierWitness(it.stream, g.hdr.K, g.hdr.Params)
			})
			core = append(core, float64(d)/1e6)
			if w == nil {
				tr.probe.end(root)
				return nil, wrongf("tier probe: item %d no longer rejects", i)
			}
			var res spectrum.Result
			d = tr.probe.call("witness.Witness.Adjudicate", root, int64(i), func() { res = w.Adjudicate(0) })
			adj = append(adj, float64(d)/1e6)
			tr.probe.end(root)
			if res.Checked != it.want.Tiered || (res.Checked && int(res.Tier) != it.want.Tier) {
				return nil, wrongf("tier probe: item %d adjudicated %s, set-up said %s", i, res, it.want)
			}
		}
	}
	m["witness.tier_core_p50_ms"] = quantile(core, 0.5)
	m["witness.tier_core_p99_ms"] = quantile(core, 0.99)
	m["spectrum.adjudicate_p50_ms"] = quantile(adj, 0.5)
	m["spectrum.adjudicate_p99_ms"] = quantile(adj, 0.99)
	return m, nil
}

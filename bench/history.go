package main

import (
	"bytes"
	"errors"

	"scverify/internal/checker"
	"scverify/internal/history"
)

// historySize fixes the history-mixed inputs.
type historySize struct {
	histories int // per seed
	processes int
	keys      int
	ops       int
}

// anomalyEvery: one history in every this many carries an anomaly.
const anomalyEvery = 4

var historyMixedSize = historySize{
	histories: 32,
	processes: 4,
	keys:      3,
	ops:       200,
}

// historyMixed runs Jepsen-style JSONL histories through parse, lower
// and check in-process: the same checker behind a different front end,
// with no network, clone or tier.
func historyMixed(sz historySize) workload {
	return workload{
		name:    "history-mixed",
		clients: 1,
		warmup:  warmupTime,
		setup:   func(seed int64) (instance, error) { return setupHistory(sz, seed) },
	}
}

type historyItem struct {
	jsonl []byte
	// want is the constraint the injected anomaly lowers to, or
	// ConstraintNone for a clean history, which must be accepted.
	want checker.Constraint
}

type historyInst struct {
	sz    historySize
	items []historyItem
}

func setupHistory(sz historySize, seed int64) (*historyInst, error) {
	inst := &historyInst{sz: sz}
	kinds := history.AllAnomalies()
	for i := 0; i < sz.histories; i++ {
		cfg := history.GenConfig{Seed: seed*1000 + int64(i), Processes: sz.processes, Keys: sz.keys, Ops: sz.ops}
		if i%anomalyEvery == anomalyEvery-1 {
			cfg.Anomalies = []history.AnomalyKind{kinds[(i/anomalyEvery)%len(kinds)]}
		}
		g, err := history.Generate(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := g.History.WriteJSONL(&buf); err != nil {
			return nil, err
		}
		it := historyItem{jsonl: buf.Bytes()}
		if len(g.Anomalies) > 0 {
			it.want = g.Anomalies[0].Expect
		}
		inst.items = append(inst.items, it)
	}
	return inst, nil
}

func (h *historyInst) close() {}

func (h *historyInst) request(_ int, req int64, tr *tracer) (float64, bool, error) {
	it := &h.items[req%int64(len(h.items))]
	root := tr.begin("history.request", -1, req)
	defer tr.end(root)

	id := tr.begin("history.ParseJSONL", root, req)
	hist, err := history.ParseJSONL(bytes.NewReader(it.jsonl))
	tr.end(id)
	if err != nil {
		return 0, false, wrongf("history %d: generated JSONL does not parse: %v", req, err)
	}
	id = tr.begin("history.Lower", root, req)
	l, err := history.Lower(hist)
	tr.end(id)
	if err != nil {
		return 0, false, wrongf("history %d: generated history does not lower: %v", req, err)
	}
	id = tr.begin("history.Lowering.Check", root, req)
	err = l.Check()
	tr.end(id)

	var re *checker.RejectError
	switch {
	case it.want == checker.ConstraintNone && err != nil:
		return 0, false, wrongf("history %d: clean history rejected: %v", req, err)
	case it.want == checker.ConstraintNone:
	case err == nil:
		return 0, false, wrongf("history %d: anomaly (%s) accepted", req, it.want)
	case !errors.As(err, &re) || re.Constraint != it.want:
		return 0, false, wrongf("history %d: want a %s rejection, got %v", req, it.want, err)
	}
	return 1, false, nil
}

func (h *historyInst) check() error { return nil }

func (h *historyInst) layers(tr *traceRun) (map[string]float64, error) {
	sp := tr.traced.spans
	m := map[string]float64{
		"history.parse_us":           quantile(sp.durs("history.ParseJSONL"), 0.5),
		"history.lower_us":           quantile(sp.durs("history.Lower"), 0.5),
		"history.check_us":           quantile(sp.durs("history.Lowering.Check"), 0.5),
		"history.allocs_per_history": ratio(float64(tr.untraced.mallocs), float64(tr.untraced.requests)),
	}
	parseNs, _ := sp.total("history.ParseJSONL")
	var parsed float64
	for _, x := range sp {
		if x.Name == "history.request" {
			parsed += float64(len(h.items[x.Req%int64(len(h.items))].jsonl))
		}
	}
	m["history.parse_ns_per_byte"] = ratio(parseNs, parsed)

	// Lowering.Check steps a fresh checker over the lowered stream; replay
	// those steps to time them apart from checker set-up and Finish.
	var jobs []checkJob
	for _, it := range h.items {
		hist, err := history.ParseJSONL(bytes.NewReader(it.jsonl))
		if err != nil {
			return nil, err
		}
		l, err := history.Lower(hist)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, checkJob{stream: l.Stream, k: l.K, params: l.Params})
	}
	var stepNs float64
	symbols := 0
	for r := 0; r < probeReps; r++ {
		for i, j := range jobs {
			n, ns := j.steps(tr.probe, int64(i))
			symbols += n
			stepNs += ns
		}
	}
	m["checker.step_ns_per_symbol"] = ratio(stepNs, float64(symbols))
	m["checker.allocs_per_symbol"] = stepAllocs(jobs)
	return m, nil
}

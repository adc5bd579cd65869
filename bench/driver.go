package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named input set. setup builds its inputs, and any
// in-process servers, from the seed; the instance it returns serves
// closed-loop requests until closed.
type workload struct {
	name    string
	clients int // closed-loop callers, each waiting for its verdict
	// warmup is the discarded closed-loop time before measuring; every
	// caller runs at least one request, so 0 means one discarded request.
	warmup time.Duration
	setup  func(seed int64) (instance, error)
}

// warmupTime is the warm-up of the workloads whose requests are short.
const warmupTime = 3 * time.Second

// instance is a set-up workload.
type instance interface {
	// request runs one request on caller c; req numbers the run's requests
	// across callers and phases, without gaps or repeats. It returns the
	// work units the request completed (symbols, sessions, histories or
	// states). failed reports a transport error or a busy or quota verdict;
	// err reports a wrong verdict, tier or count, which aborts the run.
	request(c int, req int64, tr *tracer) (units float64, failed bool, err error)
	// check verifies whole-run invariants once the callers have stopped.
	check() error
	// layers computes the workload's per-layer metrics after a traced run,
	// running whatever post-hoc probes it needs. Probe spans go to
	// tr.probe.
	layers(tr *traceRun) (map[string]float64, error)
	close()
}

// phase is one closed-loop measurement window.
type phase struct {
	requests int
	failed   int
	units    float64
	elapsed  time.Duration // until the last caller stopped
	measured time.Duration // the nominal length callers started requests for
	done     []done        // successful requests
	spans    spanSet       // traced phases only

	// Allocation deltas over the phase, when measured.
	mallocs, bytes uint64
}

// done is one successful request: its interval since the phase start and
// the work units it completed.
type done struct {
	start, end time.Duration
	units      float64
}

// latencies returns every successful request's time to verdict in ms.
func (p phase) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, d := range p.done {
		out[i] = float64(d.end-d.start) / 1e6
	}
	return out
}

// rateWindow is the width of the windows throughput is measured over.
const rateWindow = time.Second

// rate is the phase's throughput in units per second: the median over
// the whole one-second windows of the nominal phase, while every caller
// is busy, with each request's units credited evenly over its lifetime.
// A median of windows keeps a burst of interference from other processes
// out of the figure. Phases shorter than two windows fall back to units
// over elapsed time. It also returns the number of windows.
func (p phase) rate() (float64, int) {
	n := int(min(p.elapsed, p.measured) / rateWindow)
	if n < 2 {
		return ratio(p.units, p.elapsed.Seconds()), 1
	}
	credit := make([]float64, n)
	for _, d := range p.done {
		life := float64(d.end - d.start)
		for w := int(d.start / rateWindow); w < n && time.Duration(w)*rateWindow < d.end; w++ {
			lo := max(d.start, time.Duration(w)*rateWindow)
			hi := min(d.end, time.Duration(w+1)*rateWindow)
			if life <= 0 {
				credit[w] += d.units
				break
			}
			credit[w] += d.units * float64(hi-lo) / life
		}
	}
	for w := range credit {
		credit[w] /= rateWindow.Seconds()
	}
	return median(credit), n
}

// traceRun is what a workload's layers method sees of a traced run.
type traceRun struct {
	untraced phase
	traced   phase
	probe    *tracer
}

// runConfig fixes one run's lengths. The command line sets seed, measure
// and trace; setupMin is a constant the tests shrink.
type runConfig struct {
	seed     int64
	measure  time.Duration
	setupMin time.Duration // repeat set-up at least this long (and setupReps times)
	trace    bool
}

const (
	setupTime = 2 * time.Second
	setupReps = 3
	maxSetups = 1000
)

func defaultConfig(seed int64, seconds int, trace bool) runConfig {
	return runConfig{
		seed:     seed,
		measure:  time.Duration(seconds) * time.Second,
		setupMin: setupTime,
		trace:    trace,
	}
}

// outcome is a finished run before rendering.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int
	spans     spanSet
	wrong     error // the correctness failure that aborted the run, if any
}

// errWrong marks a correctness failure (as opposed to an environment
// error such as a failed listen).
type errWrong struct{ err error }

func (e errWrong) Error() string { return e.err.Error() }
func (e errWrong) Unwrap() error { return e.err }

func wrongf(format string, args ...any) error { return errWrong{fmt.Errorf(format, args...)} }

// loop drives the closed loop for d on every caller: each caller starts
// requests until d has passed, at least one. next holds each caller's
// request ordinal and advances across phases.
func loop(inst instance, next []int, d time.Duration, traced bool) (phase, error) {
	start := time.Now()
	deadline := start.Add(d)
	type callerOut struct {
		ph  phase
		tr  *tracer
		err error
	}
	outs := make([]callerOut, len(next))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := range next {
		if traced {
			outs[c].tr = newTracer(start)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for !stop.Load() && (o.ph.requests == 0 || time.Now().Before(deadline)) {
				t0 := time.Since(start)
				units, failed, err := inst.request(c, int64(next[c]*len(next)+c), o.tr)
				t1 := time.Since(start)
				next[c]++
				o.ph.requests++
				if err != nil {
					o.err = err
					stop.Store(true)
					return
				}
				if failed {
					o.ph.failed++
					continue
				}
				o.ph.units += units
				o.ph.done = append(o.ph.done, done{start: t0, end: t1, units: units})
			}
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start), measured: d}
	var tracers []*tracer
	for _, o := range outs {
		if o.err != nil {
			return ph, o.err
		}
		ph.requests += o.ph.requests
		ph.failed += o.ph.failed
		ph.units += o.ph.units
		ph.done = append(ph.done, o.ph.done...)
		tracers = append(tracers, o.tr)
	}
	ph.spans = merge(tracers...)
	return ph, nil
}

// measureAllocs runs fn between two MemStats snapshots.
func measureAllocs(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// memEvery is the interval memory is sampled at during a measurement.
const memEvery = 100 * time.Millisecond

// heldMiB is the memory the Go runtime holds from the OS: everything it
// has mapped minus the heap it has released back.
func heldMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// sampleMemory runs fn, sampling heldMiB every memEvery and once more at
// the end.
func sampleMemory(fn func()) []float64 {
	stop := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		var xs []float64
		for {
			select {
			case <-stop:
				samples <- append(xs, heldMiB())
				return
			case <-tick.C:
				xs = append(xs, heldMiB())
			}
		}
	}()
	fn()
	close(stop)
	return <-samples
}

// setupSample is the least time one set-up sample covers: a set-up faster
// than this is repeated within the sample and averaged, so the clock's
// own cost and jitter do not swamp it.
const setupSample = time.Millisecond

// setupRepeated takes at least reps set-up samples, for at least
// cfg.setupMin, closing every instance but the last, and returns the last
// instance with every sample's time per set-up in seconds.
func setupRepeated(w workload, cfg runConfig, reps int) (instance, []float64, error) {
	var times []float64
	var inst instance
	began := time.Now()
	for {
		if inst != nil {
			inst.close()
			inst = nil
		}
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < setupSample {
			if inst != nil {
				inst.close() // only set-ups faster than setupSample repeat here
			}
			var err error
			if inst, err = w.setup(cfg.seed); err != nil {
				return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
			}
			n++
		}
		times = append(times, time.Since(t0).Seconds()/float64(n))
		if len(times) >= maxSetups || (len(times) >= reps && time.Since(began) >= cfg.setupMin) {
			return inst, times, nil
		}
	}
}

// run executes one workload run: set-up, warm-up, then either the
// untraced measurement (end-to-end metrics) or the untraced and traced
// halves of a traced run (per-layer metrics). A non-nil error is an
// environment failure; a correctness failure comes back in outcome.wrong.
func run(w workload, cfg runConfig) (outcome, error) {
	out := outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	inst, setups, err := setupRepeated(w, cfg, reps)
	if err != nil {
		return out, err
	}
	defer inst.close()
	next := make([]int, w.clients)

	fail := func(err error) (outcome, error) {
		if errors.As(err, new(errWrong)) {
			out.wrong = err
			return out, nil
		}
		return out, err
	}
	if _, err := loop(inst, next, w.warmup, false); err != nil {
		return fail(err)
	}

	if !cfg.trace {
		var ph phase
		mem := sampleMemory(func() { ph, err = loop(inst, next, cfg.measure, false) })
		out.attempted, out.failed = ph.requests, ph.failed
		if err != nil {
			return fail(err)
		}
		if err := inst.check(); err != nil {
			return fail(err)
		}
		lat := ph.latencies()
		out.metrics["setup_s"] = median(setups)
		out.samples["setup_s"] = len(setups)
		out.metrics["throughput_per_s"], out.samples["throughput_per_s"] = ph.rate()
		out.metrics["latency_p50_ms"] = quantile(lat, 0.50)
		out.samples["latency_p50_ms"] = len(lat)
		out.metrics["latency_p99_ms"] = quantile(lat, 0.99)
		out.samples["latency_p99_ms"] = len(lat)
		out.metrics["memory_p50_mb"] = median(mem)
		out.samples["memory_p50_mb"] = len(mem)
		return out, nil
	}

	tr := &traceRun{probe: newTracer(time.Now())}
	mallocs, bytes := measureAllocs(func() { tr.untraced, err = loop(inst, next, cfg.measure/2, false) })
	tr.untraced.mallocs, tr.untraced.bytes = mallocs, bytes
	out.attempted, out.failed = tr.untraced.requests, tr.untraced.failed
	if err != nil {
		return fail(err)
	}
	tr.traced, err = loop(inst, next, cfg.measure/2, true)
	out.attempted += tr.traced.requests
	out.failed += tr.traced.failed
	if err != nil {
		return fail(err)
	}
	if err := inst.check(); err != nil {
		return fail(err)
	}
	layers, err := inst.layers(tr)
	if err != nil {
		return fail(err)
	}
	if _, ok := layers["bench.trace_overhead"]; !ok {
		untraced, _ := tr.untraced.rate()
		traced, _ := tr.traced.rate()
		layers["bench.trace_overhead"] = ratio(untraced, traced) - 1
	}
	for _, m := range perLayer {
		out.metrics[m.name] = layers[m.name]
		delete(layers, m.name)
	}
	if len(layers) > 0 {
		return out, fmt.Errorf("%s: %d undeclared per-layer metrics", w.name, len(layers))
	}
	out.spans = merge(&tracer{spans: tr.traced.spans}, tr.probe)
	return out, nil
}

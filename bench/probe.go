package main

import (
	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// probeReps is how often a traced run's post-hoc probes repeat each input.
const probeReps = 3

// Sinks keep probed results alive so the compiler cannot drop the calls
// that produce them.
var (
	sinkChecker *checker.Checker
	sinkBytes   []byte
	sinkFP      uint64
)

// checkJob is one stream a post-hoc probe steps a fresh checker over.
type checkJob struct {
	stream  descriptor.Stream
	k       int
	params  trace.Params
	witness bool // witness mode, as scserve sessions run
}

func (j checkJob) checker() *checker.Checker {
	chk := checker.New(j.k)
	if j.witness {
		chk.EnableWitness()
	}
	if j.params.Procs > 0 {
		chk.SetParams(j.params)
	}
	return chk
}

// steps steps a fresh checker over the job's stream up to and including
// its first rejection, as one span, and returns the symbols stepped.
func (j checkJob) steps(tr *tracer, req int64) (int, float64) {
	chk := j.checker()
	n := len(j.stream)
	id := tr.begin("checker.Step", -1, req)
	for i, sym := range j.stream {
		if chk.Step(sym) != nil {
			n = i + 1
			break
		}
	}
	return n, float64(tr.endN(id, n))
}

// stepAllocs counts the allocations per symbol of stepping a fresh
// checker over every job's stream.
func stepAllocs(jobs []checkJob) float64 {
	symbols := 0
	mallocs, _ := measureAllocs(func() {
		for _, j := range jobs {
			chk := j.checker()
			for i, sym := range j.stream {
				if chk.Step(sym) != nil {
					symbols += i + 1
					break
				}
			}
			if chk.Err() == nil {
				symbols += len(j.stream)
			}
		}
	})
	return ratio(float64(mallocs), float64(symbols))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

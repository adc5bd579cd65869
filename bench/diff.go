package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so spreads
// printed here match the ones computed from the same values elsewhere. It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// comparison is one workload/metric row of a diff.
type comparison struct {
	medA, medB float64
	change     float64 // (medB-medA)/medA
	verdict    string
}

// compare judges set b against set a under the metric's direction and
// bound: worse or better when the medians differ by more than the bound,
// same otherwise, and unresolved when a set's spread exceeds the bound —
// unless every run of one set beats every run of the other. A metric
// without a bound is reported as info.
func compare(m specMetric, a, b []float64) comparison {
	c := comparison{medA: median(append([]float64(nil), a...)), medB: median(append([]float64(nil), b...))}
	if c.medA != 0 {
		c.change = (c.medB - c.medA) / math.Abs(c.medA)
	}
	worseBy := c.change
	beats := func(x, y float64) bool { return x < y }
	if m.Better == "higher" {
		worseBy = -c.change
		beats = func(x, y float64) bool { return x > y }
	}
	bBeatsAll, aBeatsAll := true, true
	for _, x := range a {
		for _, y := range b {
			bBeatsAll = bBeatsAll && beats(y, x)
			aBeatsAll = aBeatsAll && beats(x, y)
		}
	}
	switch {
	case m.Bound == nil:
		c.verdict = "info"
	case max(spread(a), spread(b)) > *m.Bound && !bBeatsAll && !aBeatsAll:
		c.verdict = "unresolved"
	case worseBy > *m.Bound:
		c.verdict = "worse"
	case worseBy < -*m.Bound:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c
}

// diffMain implements `scbench diff <a.json>... -- <b.json>...`: it
// compares two sets of -out result files workload by workload and exits
// 1 if any metric is worse.
func diffMain(args []string, specPath string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: scbench diff <a.json>... -- <b.json>...")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "scbench diff: %v\n", err)
		return 2
	}
	sets := [2]map[string]map[string][]float64{} // workload/mode -> metric -> values
	for s, files := range [2][]string{args[:split], args[split+1:]} {
		sets[s] = map[string]map[string][]float64{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintf(stderr, "scbench diff: %v\n", err)
				return 2
			}
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				fmt.Fprintf(stderr, "scbench diff: %s: %v\n", f, err)
				return 2
			}
			if !r.Correct {
				fmt.Fprintf(stderr, "scbench diff: %s is from an incorrect run\n", f)
				return 2
			}
			key := groupKey(r.Env.Workload, r.Env.Trace)
			if sets[s][key] == nil {
				sets[s][key] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				sets[s][key][name] = append(sets[s][key][name], v.Value)
			}
		}
	}

	code := 0
	fmt.Fprintf(stdout, "%-18s %-34s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "change", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			key := groupKey(w.Name, traced)
			a, b := sets[0][key], sets[1][key]
			if a == nil || b == nil {
				continue
			}
			metrics := sp.EndToEnd
			if traced {
				metrics = sp.PerLayer
			}
			for _, m := range metrics {
				if len(a[m.Name]) == 0 || len(b[m.Name]) == 0 {
					continue
				}
				c := compare(m, a[m.Name], b[m.Name])
				bound := "-"
				if m.Bound != nil {
					bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
				}
				fmt.Fprintf(stdout, "%-18s %-34s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %6s  %s\n",
					w.Name, m.Name, c.medA, spread(a[m.Name])*100, c.medB, spread(b[m.Name])*100, c.change*100, bound, c.verdict)
				if c.verdict == "worse" {
					code = 1
				}
			}
		}
	}
	return code
}

func groupKey(workload string, traced bool) string {
	if traced {
		return workload + " (traced)"
	}
	return workload
}

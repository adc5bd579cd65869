package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scverify/internal/checker"
	"scverify/internal/trace"
)

// The tests run every workload in-process at a tiny size; the recorded
// sizes are the package-level *Size values.

func tinyServe() workload {
	return serveLong(serveSize{
		protocol: "directory", params: trace.Params{Procs: 4, Blocks: 2, Values: 2},
		runs: 2, steps: 1500,
		sweepSymbols: 4096, sweepSteps: 5000,
	})
}

func tinyGrid() workload {
	return gridShortTiered(gridSize{
		protocol: "storebuffer", params: trace.Params{Procs: 2, Blocks: 2, Values: 1},
		runs: 16, steps: 24,
	})
}

func tinyHistory() workload {
	return historyMixed(historySize{histories: 4, processes: 3, keys: 2, ops: 40})
}

func tinyVerify() workload {
	return verifyMC(verifySize{
		protocol: "writethrough", params: trace.Params{Procs: 1, Blocks: 1, Values: 1},
		states: tinyVerifyStates, transitions: tinyVerifyTransitions,
	})
}

// The exhaustive counts of writethrough at p=1 b=1 v=1.
const (
	tinyVerifyStates      = 66
	tinyVerifyTransitions = 165
)

func tinyWorkloads() []workload {
	ws := []workload{tinyServe(), tinyGrid(), tinyHistory(), tinyVerify()}
	for i := range ws {
		ws[i].warmup = 0
	}
	return ws
}

func tinyConfig(traced bool) runConfig {
	return runConfig{seed: 1, measure: 100 * time.Millisecond, trace: traced}
}

// lastLine runs execute and decodes the summary line it prints last.
func lastLine(t *testing.T, w workload, cfg runConfig) (int, summary) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(w, cfg, "", "", &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line %q: %v (stderr %s)", w.name, lines[len(lines)-1], err, stderr.String())
	}
	return code, sum
}

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecMatchesProgram(t *testing.T) {
	sp := loadTestSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		what    string
		spec    []specMetric
		program []metricDef
	}{{"end_to_end", sp.EndToEnd, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		declared := map[string]string{}
		for _, m := range set.spec {
			declared[m.Name] = m.Unit
		}
		if len(declared) != len(set.program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", set.what, len(declared), len(set.program))
		}
		for _, m := range set.program {
			if unit, ok := declared[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: program metric %s [%s] is declared as [%s]", set.what, m.name, m.unit, unit)
			}
		}
	}
	var setup float64
	for _, m := range sp.EndToEnd {
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %s has no bound", m.Name)
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s has a wider bound (%v) than setup_s (%v)", m.Name, *m.Bound, setup)
		}
	}
}

// layerMetrics are the per-layer metrics each workload's traced run must
// report as non-zero: the layers it passes through.
var layerMetrics = map[string][]string{
	"serve-long": {"scserve.send_ns_per_symbol", "scserve.finish_p50_us", "descriptor.decode_ns_per_symbol",
		"checker.step_ns_per_symbol", "checker.allocs_per_symbol", "checker.clone_us",
		"checker.step_ns_per_symbol.at1k", "checker.step_ns_per_symbol.at64k"},
	"grid-short-tiered": {"scgrid.send_us", "scgrid.finish_p99_us", "witness.tier_core_p50_ms",
		"spectrum.adjudicate_p50_ms", "scserve.tier_share"},
	"history-mixed": {"history.parse_us", "history.parse_ns_per_byte", "history.lower_us", "history.check_us",
		"history.allocs_per_history", "checker.step_ns_per_symbol"},
	"verify-mc": {"mc.product_step_us", "mc.key_us", "mc.fingerprint_ns", "mc.finish_check_us",
		"mc.new_state_ratio", "mc.allocs_per_state", "checker.clone_us", "observer.clone_us",
		"protocol.transitions_us"},
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := loadTestSpec(t)
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			code, sum := lastLine(t, w, tinyConfig(traced))
			if code != 0 || !sum.Correct || sum.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, %+v", w.name, traced, code, sum)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %v", w.name, traced, m.Name, m.Unit, got)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			if traced {
				for _, name := range layerMetrics[w.name] {
					if sum.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s is 0 on the workload's own path", w.name, name)
					}
				}
			}
		}
	}
}

func TestWrongAnswerAborts(t *testing.T) {
	hist := tinyHistory()
	hist.warmup = 0
	setup := hist.setup
	hist.setup = func(seed int64) (instance, error) {
		inst, err := setup(seed)
		if err == nil {
			inst.(*historyInst).items[0].want = checker.Constraint4 // a clean history, expected rejected
		}
		return inst, err
	}
	ver := tinyVerify()
	ver.setup = func(int64) (instance, error) {
		inst, err := setupVerify(verifySize{
			protocol: "writethrough", params: trace.Params{Procs: 1, Blocks: 1, Values: 1},
			states: tinyVerifyStates + 1, transitions: tinyVerifyTransitions,
		})
		return inst, err
	}
	for _, w := range []workload{hist, ver} {
		code, sum := lastLine(t, w, tinyConfig(false))
		if code != 1 || sum.Correct {
			t.Errorf("%s with a wrong expectation: exit %d, correct %v; want exit 1, incorrect", w.name, code, sum.Correct)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestDiffVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput, setup float64) string {
		r := result{
			Env:     envStamp{Workload: "serve-long"},
			Correct: true,
			Metrics: map[string]metricValue{
				"throughput_per_s": {Value: throughput, Unit: "1/s"},
				"setup_s":          {Value: setup, Unit: "s"},
			},
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var base, same, slower, noisy []string
	for i, v := range []float64{100, 101, 99, 100.5, 99.5} {
		base = append(base, write("a"+string(rune('0'+i)), v, 1))
		same = append(same, write("s"+string(rune('0'+i)), v+0.5, 1.01))
		slower = append(slower, write("w"+string(rune('0'+i)), v*0.6, 1))
		noisy = append(noisy, write("n"+string(rune('0'+i)), v*(0.7+0.15*float64(i)), 1))
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name string
		b    []string
		code int
		want string
	}{
		{"same", same, 0, "same"},
		{"worse", slower, 1, "worse"},
		{"unresolved", noisy, 0, "unresolved"},
	} {
		var stdout, stderr bytes.Buffer
		args := append(append(append([]string(nil), base...), "--"), tc.b...)
		code := diffMain(args, spec, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		var row string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(l, "throughput_per_s") {
				row = l
			}
		}
		if !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: throughput row %q, want verdict %s", tc.name, row, tc.want)
		}
	}
}

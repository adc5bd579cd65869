// Command scbench is the repository's one benchmark: four closed-loop
// workloads over the checker's front ends (scserve sessions, scgrid
// dispatch, Jepsen-style histories, and the mc model checker), each
// reporting the end-to-end metrics declared in BENCHMARK.json, plus a
// traced mode that reports the per-layer metrics by timing calls into
// each package's public API from outside.
//
//	scbench -workload <name> -seed <n> [-seconds <s>] [-trace 0|1] [-out <file>] [-spans <file>]
//	scbench diff <a.json>... -- <b.json>...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 for a correct
// run, 1 when a verdict, tier or count was wrong, and 2 when the run could
// not be made. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"memory_p50_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not pass through reads 0.
var perLayer = []metricDef{
	{"scserve.session_open_us", "us"},
	{"scserve.send_ns_per_symbol", "ns"},
	{"scserve.finish_p50_us", "us"},
	{"scserve.finish_p99_us", "us"},
	{"scserve.acked_checkpoints_per_session", "count"},
	{"scserve.unattributed_share", "ratio"},
	{"scserve.tier_share", "ratio"},
	{"descriptor.decode_ns_per_symbol", "ns"},
	{"checker.step_ns_per_symbol", "ns"},
	{"checker.allocs_per_symbol", "count"},
	{"checker.clone_us", "us"},
	{"checker.step_ns_per_symbol.at1k", "ns"},
	{"checker.step_ns_per_symbol.at4k", "ns"},
	{"checker.step_ns_per_symbol.at16k", "ns"},
	{"checker.step_ns_per_symbol.at64k", "ns"},
	{"scgrid.send_us", "us"},
	{"scgrid.finish_p50_us", "us"},
	{"scgrid.finish_p99_us", "us"},
	{"scgrid.sheds", "count"},
	{"scgrid.drain_redirects", "count"},
	{"witness.tier_core_p50_ms", "ms"},
	{"witness.tier_core_p99_ms", "ms"},
	{"spectrum.adjudicate_p50_ms", "ms"},
	{"spectrum.adjudicate_p99_ms", "ms"},
	{"history.parse_us", "us"},
	{"history.parse_ns_per_byte", "ns"},
	{"history.lower_us", "us"},
	{"history.check_us", "us"},
	{"history.allocs_per_history", "count"},
	{"mc.product_step_us", "us"},
	{"mc.key_us", "us"},
	{"mc.fingerprint_ns", "ns"},
	{"mc.finish_check_us", "us"},
	{"mc.new_state_ratio", "ratio"},
	{"mc.wasted_step_share", "ratio"},
	{"mc.allocs_per_state", "count"},
	{"mc.bytes_per_state", "B"},
	{"observer.clone_us", "us"},
	{"protocol.transitions_us", "us"},
	{"bench.trace_overhead", "ratio"},
}

// workloads are the benchmark's named workloads at their recorded sizes.
var workloads = []workload{
	serveLong(serveLongSize),
	gridShortTiered(gridShortSize),
	historyMixed(historyMixedSize),
	verifyMC(verifyMCSize),
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "diff" {
		return diffMain(args[1:], "BENCHMARK.json", stdout, stderr)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("scbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	outPath := fs.String("out", "", "also write the full result (environment stamp, sample counts) to this file")
	spansPath := fs.String("spans", "", "traced run: write every span and the self-time table to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fs.Usage()
		return 2
	}
	for _, w := range workloads {
		if w.name == *name {
			cfg := defaultConfig(*seed, *seconds, *traceMode == 1)
			return execute(w, cfg, *outPath, *spansPath, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "scbench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
	return 2
}

// envStamp records where and from what a result was measured.
type envStamp struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	UTC         string `json:"utc"`
}

func stamp(workload string, cfg runConfig) envStamp {
	env := envStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.measure / time.Second),
		Trace:      cfg.trace,
		UTC:        time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.VCSRevision = s.Value
			case "vcs.modified":
				env.VCSModified = s.Value
			}
		}
	}
	return env
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValue is one metric in a result; Samples is the number of
// measurements it was computed from.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is the full record -out writes and diff reads.
type result struct {
	Env       envStamp               `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the last line of standard output: result without the
// environment stamp and the sample counts.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and renders its result; it returns the exit
// code.
func execute(w workload, cfg runConfig, outPath, spansPath string, stdout, stderr io.Writer) int {
	env := stamp(w.name, cfg)
	out, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "scbench: %v\n", err)
		return 2
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Env:       env,
		Correct:   out.wrong == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "scbench env %s\n", envLine)
	for _, d := range defs {
		v := metricValue{Value: out.metrics[d.name], Unit: d.unit, Samples: out.samples[d.name]}
		res.Metrics[d.name] = v
		sum.Metrics[d.name] = metricValue{Value: v.Value, Unit: v.Unit}
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(stdout, "scbench %s %-36s %14.6g %-6s%s\n", w.name, d.name, v.Value, d.unit, n)
	}
	code := 0
	if out.wrong != nil {
		fmt.Fprintf(stderr, "scbench: %s: WRONG: %v\n", w.name, out.wrong)
		code = 1
	}
	if cfg.trace && len(out.spans) > 0 {
		printSelfTimes(stdout, out.spans)
		if spansPath != "" {
			if err := writeSpans(spansPath, out.spans); err != nil {
				fmt.Fprintf(stderr, "scbench: %v\n", err)
				return 2
			}
		}
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "scbench: write %s: %v\n", outPath, err)
			return 2
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "scbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

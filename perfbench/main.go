// Command perfbench is calgo's end-to-end benchmark. One invocation runs
// one named workload from a seed, checks every verdict against the
// answer known from how its input was built, and prints the metrics:
// the end-to-end ones by default, the per-layer ones with -trace 1.
//
// Build and run it through run.sh from the root of a calgo checkout:
//
//	bash perfbench/run.sh --workload check-ca --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it give the
// run context and a table of every metric with its unit and sample
// count. A wrong verdict, a lost job or an unexpected explorer state
// count makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// rowFormat lays out one metric of the printed table: name, value, unit,
// sample count and what the number means on the workload.
const rowFormat = "%-38s %16.6g %-6s %8d  %s"

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports in an
// untraced run. Each workload gives them its own meaning (see README.md):
// throughput_per_s is verdicts/s on check-ca, events/s on check-long,
// states/s on explore and jobs per cald CPU-second on service.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"decided_share", "ratio"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer the workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"history.parse_s", "s"},
	{"history.parse_events_per_s", "1/s"},
	{"history.fingerprint_events_per_s", "1/s"},
	{"check.dfs_s", "s"},
	{"check.states", "count"},
	{"check.memo_hits", "count"},
	{"check.memo_hit_ratio", "ratio"},
	{"check.states_per_s", "1/s"},
	{"check.alloc_bytes_per_state", "B"},
	{"check.deadline_overshoot_ms", "ms"},
	{"monitor.s", "s"},
	{"monitor.events_per_s", "1/s"},
	{"monitor.dispatch", "count"},
	{"monitor.fallback", "count"},
	{"monitor.decided_ratio", "ratio"},
	{"monitor.fallback_s", "s"},
	{"sched.f1.s", "s"},
	{"sched.f2.s", "s"},
	{"sched.syncqueue.s", "s"},
	{"sched.dualstack.s", "s"},
	{"sched.states", "count"},
	{"sched.transitions", "count"},
	{"sched.steals", "count"},
	{"sched.allocs_per_state", "count"},
	{"sched.alloc_bytes_per_state", "B"},
	{"model.f2.key_ns", "ns"},
	{"model.f2.succ_ns", "ns"},
	{"model.f2.alloc_bytes_per_state", "B"},
	{"model.dualstack.key_ns", "ns"},
	{"model.dualstack.succ_ns", "ns"},
	{"model.dualstack.alloc_bytes_per_state", "B"},
	{"explore.invariant_s", "s"},
	{"explore.transition_s", "s"},
	{"explore.terminal_s", "s"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_p99_ms", "ms"},
	{"jobs.run_p50_ms", "ms"},
	{"jobs.run_p99_ms", "ms"},
	{"http.submit_p50_ms", "ms"},
	{"http.submit_p99_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.shed", "count"},
	{"jobs.rate_limited", "count"},
	{"jobs.queue_depth_max", "count"},
	{"stream.feed_p50_ms", "ms"},
	{"stream.feed_p99_ms", "ms"},
	{"stream.events", "count"},
	{"stream.checks", "count"},
	{"stream.shed", "count"},
	{"stream.resident_hwm", "count"},
	{"runstore.puts", "count"},
	{"runstore.replayed", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.offered_per_s", "1/s"},
	{"loadgen.max_jobs_per_s", "1/s"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// config is what every workload receives from the command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory of the calgo binaries: cald, calcheck, calexplore
	workdir  string // scratch directory inside the checkout
	commit   string
	workers  int // nproc: working goroutines and HTTP connections
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	note    string // what the value is on this workload
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	wrong             []string // correctness failures, each described
	missed            []string // the first few failed operations, described
	metrics           []metric
	notes             []string // extra table lines: numbers printed but not gated
}

func (r *report) add(name, unit string, v float64, samples int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, samples: samples, note: note})
}

// note adds a table line for a number that is printed but not gated.
func (r *report) note(name, unit string, v float64, samples int, meaning string) {
	r.notes = append(r.notes, fmt.Sprintf(rowFormat, name, v, unit, samples, meaning))
}

// miss counts a failed operation: an error return, a non-2xx reply, an
// UNKNOWN job verdict or an explorer model that is not VERIFIED.
func (r *report) miss(format string, args ...any) {
	r.failed++
	if len(r.missed) < 5 {
		r.missed = append(r.missed, fmt.Sprintf(format, args...))
	}
}

// fail counts a correctness failure (a wrong verdict, a lost job, a
// stream violation at the wrong event, a wrong state count); it is a
// failed operation too, and the run exits 1.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"check-ca":   runCheckCA,
	"check-long": runCheckLong,
	"explore":    runExplore,
	"service":    runService,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: check-ca, check-long, explore or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 12, "measured time of one run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the built cald, calcheck and calexplore")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for cald state and traces")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || cfg.bin == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload check-ca|check-long|explore|service, -seconds >= 1, -trace 0|1, -bin DIR\n")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.workers = runtime.NumCPU()

	printContext(cfg)
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return printResult(cfg, rep)
}

// printContext records what the numbers were taken on: a 1-core number
// must never be read as a 2-core one.
func printContext(cfg config) {
	ctx := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(map[string]any{"context": ctx}) // plain values always marshal
	fmt.Println(string(b))
}

func printResult(cfg config, rep *report) int {
	want := e2eMetrics
	if cfg.traced {
		want = layerMetrics
	}
	got := map[string]metric{}
	for _, m := range rep.metrics {
		got[m.name] = m
	}
	fmt.Printf("%-38s %16s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "meaning on "+cfg.workload)
	out := map[string]any{}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			m = metric{name: d.name, unit: d.unit, note: "not exercised by this workload"}
		}
		if m.unit != d.unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s reported in %s, want %s\n", d.name, m.unit, d.unit)
			return 1
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf(rowFormat+"\n", d.name, v, d.unit, m.samples, m.note)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	failShare := 0.0
	if rep.attempted > 0 {
		failShare = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf(rowFormat+"\n", "fail_share", failShare, "ratio", rep.attempted, "failed / attempted")
	for _, w := range rep.missed {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", w)
	}
	sort.Strings(rep.wrong)
	for _, w := range rep.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG: %s\n", w)
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	res := map[string]any{
		"correct":   len(rep.wrong) == 0,
		"attempted": attempted,
		"failed":    rep.failed,
		"metrics":   out,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if len(rep.wrong) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness failure(s): %s\n", len(rep.wrong), strings.Join(rep.wrong[:min(3, len(rep.wrong))], "; "))
		return 1
	}
	return 0
}

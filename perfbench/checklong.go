package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"calgo"
	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/obs"
)

// longDeadline is check-long's per-input deadline. The stack monitor
// punts on most Sat stack histories of 5k ops or more and the DFS
// fallback then runs into it: those inputs count as undecided, and
// check.deadline_overshoot_ms records how late they came back.
const longDeadline = 100 * time.Millisecond

// longProbe is the history check-long's cold start decides: a queue
// history the monitor decides.
const longProbe = "examples/histories/queue-fifo.txt"

// longPass decides every input once, one at a time, in corpus order.
func longPass(corpus []input, checkers map[checkerKey]*calgo.Checker, tr *tracer, base int64, each func(outcome)) {
	for i := range corpus {
		in := &corpus[i]
		each(decide(context.Background(), tr, base+int64(i)+1, checkers[keyOf(*in)], in, longDeadline))
	}
}

func runCheckLong(cfg config) (*report, error) {
	corpus := genLongCorpus(cfg.seed)
	rep := &report{}
	if cfg.traced {
		return traceCheckLong(cfg, corpus, rep)
	}
	setup, err := coldStart(cfg.bin, "calcheck", "-spec", "queue", "-object", "Q", longProbe)
	if err != nil {
		return nil, err
	}
	checkers, err := buildCheckers(configs(corpus), nil)
	if err != nil {
		return nil, err
	}
	var lat []float64
	var events, decided, passes int
	var measured time.Duration
	// Each pass decides a fresh corpus (generated untimed), so a run
	// averages over several draws of which stack histories the monitor
	// punts on. Whole passes only, so every size stratum weighs alike:
	// another pass runs if it is expected to end nearer the run length
	// than stopping now would.
	for {
		p0 := time.Now()
		longPass(corpus, checkers, nil, int64(passes*len(corpus)), func(o outcome) {
			rep.attempted++
			lat = append(lat, ms(o.latency))
			events += o.in.Events
			if judge(rep, o) {
				decided++
			}
		})
		pass := time.Since(p0)
		measured += pass
		passes++
		if measured+pass/2 >= cfg.seconds {
			break
		}
		corpus = genLongCorpus(cfg.seed + int64(passes)<<32)
	}
	n := len(lat)
	rep.add("setup_s", "s", setup, setupRuns, "calcheck cold start: exec to exit 0 on "+longProbe+", median")
	rep.add("throughput_per_s", "1/s", float64(events)/measured.Seconds(), n, fmt.Sprintf("events_per_s: events in finished inputs / time deciding them (%d passes)", passes))
	rep.add("p50_ms", "ms", median(lat), n, "verdict_p50_ms: parse + check")
	rep.add("tail_ms", "ms", quantile(lat, 0.9), n, "verdict_p90_ms: parse + check")
	rep.add("decided_share", "ratio", ratio(float64(decided), float64(rep.attempted)), int(rep.attempted), "right verdict within the deadline / attempted")
	rep.add("peak_rss_mb", "MB", peakRSSMB("self"), 1, "VmHWM of this process")
	return rep, nil
}

// traceCheckLong is the traced run: one untraced pass for the overhead,
// then one traced pass whose inputs are also given to monitor.Check and
// history.Fingerprint on their own, outside the verdict's timing.
func traceCheckLong(cfg config, corpus []input, rep *report) (*report, error) {
	m := obs.NewMetrics()
	checkers, err := buildCheckers(configs(corpus), m)
	if err != nil {
		return nil, err
	}
	p0 := time.Now()
	longPass(corpus, checkers, nil, 0, func(outcome) {})
	plainWall := time.Since(p0)
	m = obs.NewMetrics()
	if checkers, err = buildCheckers(configs(corpus), m); err != nil {
		return nil, err
	}

	tr := newTracer(true)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var dfs dfsStats
	var parseS, monS, fpS, fallbackS, verdictS float64
	var events, n int
	longPass(corpus, checkers, tr, 0, func(o outcome) {
		rep.attempted++
		judge(rep, o)
		n++
		parseS += o.parse.Seconds()
		verdictS += o.latency.Seconds()
		events += o.in.Events
		dfs.add(o)
		if o.engine == check.EngineDFS {
			fallbackS += o.check.Seconds()
		}
		if o.h == nil {
			return
		}
		sp := checkers[keyOf(*o.in)].Spec()
		t0 := time.Now()
		monitor.Check(o.h, sp)
		t1 := time.Now()
		history.Fingerprint(o.h)
		t2 := time.Now()
		tr.record(tr.id(), 0, int64(n), "monitor.check", t0, t1)
		tr.record(tr.id(), 0, int64(n), "history.fingerprint", t1, t2)
		monS += t1.Sub(t0).Seconds()
		fpS += t2.Sub(t1).Seconds()
	})
	runtime.ReadMemStats(&ms1)
	snap := m.Snapshot()
	dispatch, fallback := float64(snap.Counters["monitor.dispatch"]), float64(snap.Counters["monitor.fallback"])
	rep.add("history.parse_s", "s", parseS, n, "busy time in history.ParseFile")
	rep.add("history.parse_events_per_s", "1/s", ratio(float64(events), parseS), n, "")
	rep.add("history.fingerprint_events_per_s", "1/s", ratio(float64(events), fpS), n, "history.Fingerprint on every input")
	dfs.report(rep, n)
	rep.add("monitor.s", "s", monS, n, "busy time of monitor.Check on every input")
	rep.add("monitor.events_per_s", "1/s", ratio(float64(events), monS), n, "")
	rep.add("monitor.dispatch", "count", dispatch, n, "Checker's own counter (WithMetrics)")
	rep.add("monitor.fallback", "count", fallback, n, "Checker's own counter (WithMetrics)")
	rep.add("monitor.decided_ratio", "ratio", ratio(dispatch, dispatch+fallback), n, "dispatch / (dispatch + fallback)")
	rep.add("monitor.fallback_s", "s", fallbackS, int(fallback), "busy time of Check calls that fell back to the DFS")
	cycles, pause := gcDelta(&ms0, &ms1)
	rep.add("go.gc_cycles", "count", float64(cycles), 1, "during the traced pass")
	rep.add("go.gc_pause_ms", "ms", pause, cycles, "")
	rep.add("trace.overhead_share", "ratio", ratio(verdictS, plainWall.Seconds())-1, 2, "traced / untraced parse + check time of one pass, - 1")
	return rep, tr.write(filepath.Join(cfg.workdir, "traces"), fmt.Sprintf("check-long-seed%d.jsonl", cfg.seed))
}

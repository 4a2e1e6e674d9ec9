package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"calgo"
	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/jobs"
	"calgo/internal/obs"
)

const (
	caCorpusSize = 20000
	caDeadline   = time.Second // per-input deadline unless the example names one
	// caBlock is the number of consecutive completions whose throughput,
	// median and p99 are taken together; the run reports the median over
	// blocks, so a stall of the host spoils a few blocks, not the run.
	// Each block's p99 has 20 inputs beyond it.
	caBlock = 2000
	// exampleProbe is the history check-ca's cold start decides.
	exampleProbe = "examples/histories/fig3-h1.txt"
)

// checkerKey identifies one configured Checker.
type checkerKey struct {
	spec, object, mode string
	threads            int
}

func keyOf(in input) checkerKey {
	return checkerKey{spec: in.Spec, object: in.Object, mode: in.Mode, threads: in.Threads}
}

// configs lists the distinct checker configurations of a corpus.
func configs(corpus []input) []input {
	seen := map[checkerKey]bool{}
	var out []input
	for _, in := range corpus {
		if k := keyOf(in); !seen[k] {
			seen[k] = true
			out = append(out, in)
		}
	}
	return out
}

// buildCheckers constructs one engine-auto Checker per configuration,
// the way calcheck does.
func buildCheckers(cfgs []input, m *obs.Metrics) (map[checkerKey]*calgo.Checker, error) {
	out := make(map[checkerKey]*calgo.Checker, len(cfgs))
	for _, in := range cfgs {
		k := keyOf(in)
		sp, err := jobs.SpecByName(k.spec, k.object, k.threads)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		opts := []calgo.Option{calgo.WithEngine(calgo.EngineAuto)}
		if k.mode == "lin" {
			opts = append(opts, calgo.WithElementCap(1))
		}
		if m != nil {
			opts = append(opts, calgo.WithMetrics(m))
		}
		c, err := calgo.NewChecker(sp, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		out[k] = c
	}
	return out, nil
}

// outcome is what one parse + check of an input produced.
type outcome struct {
	in       *input
	latency  time.Duration // parse + check
	parse    time.Duration
	check    time.Duration
	verdict  check.Verdict
	engine   check.Engine
	states   int
	memoHits int
	err      error
	over     time.Duration // return time minus deadline
	h        history.History
}

// decide parses and checks one input under its deadline, recording spans
// input > history.parse, check when traced.
func decide(ctx context.Context, tr *tracer, traceID int64, c *calgo.Checker, in *input, def time.Duration) outcome {
	o := outcome{in: in}
	root := tr.id()
	t0 := time.Now()
	h, err := history.ParseFile(in.Name, in.Src)
	t1 := time.Now()
	tr.record(tr.id(), root, traceID, "history.parse", t0, t1)
	o.parse = t1.Sub(t0)
	if err != nil {
		o.err = err
		o.latency = o.parse
		tr.record(root, 0, traceID, "input", t0, t1)
		return o
	}
	o.h = h
	limit := in.Timeout
	if limit == 0 {
		limit = def
	}
	deadline := t1.Add(limit)
	cctx, cancel := context.WithDeadline(ctx, deadline)
	res, err := c.Check(cctx, h)
	cancel()
	t2 := time.Now()
	tr.record(tr.id(), root, traceID, "check", t1, t2)
	tr.record(root, 0, traceID, "input", t0, t2)
	o.check, o.latency, o.over = t2.Sub(t1), t2.Sub(t0), t2.Sub(deadline)
	o.err, o.verdict, o.engine, o.states, o.memoHits = err, res.Verdict, res.Engine, res.States, res.MemoHits
	return o
}

// judge scores one outcome: an error return is a failed operation, a
// wrong verdict fails the run, an Unknown is undecided.
func judge(rep *report, o outcome) (decided bool) {
	switch {
	case o.err != nil:
		rep.miss("%s: %v", o.in.Name, o.err)
	case o.verdict == check.Unknown:
	case o.verdict != o.in.Want:
		rep.fail("%s: verdict %v, constructed answer %v", o.in.Name, o.verdict, o.in.Want)
	default:
		return true
	}
	return false
}

// closedLoop runs workers goroutines that each take the next input (in
// corpus order, wrapping around) and decide it, until the time is up.
// Every outcome is passed to collect under a lock.
func closedLoop(corpus []input, checkers map[checkerKey]*calgo.Checker, workers int, d time.Duration,
	tr *tracer, collect func(outcome)) time.Duration {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := next.Add(1) - 1
				in := &corpus[i%int64(len(corpus))]
				o := decide(context.Background(), tr, i+1, checkers[keyOf(*in)], in, caDeadline)
				o.h = nil
				mu.Lock()
				collect(o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func runCheckCA(cfg config) (*report, error) {
	corpus := genCACorpus(cfg.seed, caCorpusSize)
	examples, err := exampleInputs(filepath.Join("examples", "histories"))
	if err != nil {
		return nil, err
	}
	corpus = append(corpus, examples...)
	rep := &report{}
	if cfg.traced {
		return traceCheckCA(cfg, corpus, rep)
	}
	setup, err := coldStart(cfg.bin, "calcheck", "-spec", "exchanger", "-object", "E", exampleProbe)
	if err != nil {
		return nil, err
	}
	checkers, err := buildCheckers(configs(corpus), nil)
	if err != nil {
		return nil, err
	}
	var lat, done []float64 // per completion, in completion order: latency and finish time (ms)
	decided := 0
	start := time.Now()
	closedLoop(corpus, checkers, cfg.workers, cfg.seconds, nil, func(o outcome) {
		rep.attempted++
		lat = append(lat, ms(o.latency))
		done = append(done, ms(time.Since(start)))
		if judge(rep, o) {
			decided++
		}
	})
	var rates, p50s, p99s []float64
	for lo := 0; lo+caBlock <= len(lat); lo += caBlock {
		hi := lo + caBlock
		blk := append([]float64(nil), lat[lo:hi]...)
		from := 0.0
		if lo > 0 {
			from = done[lo-1]
		}
		rates = append(rates, caBlock/(done[hi-1]-from)*1000)
		p50s = append(p50s, median(blk))
		p99s = append(p99s, quantile(blk, 0.99))
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("only %d inputs finished in %v; a block is %d", len(lat), cfg.seconds, caBlock)
	}
	blocks := fmt.Sprintf("median over %d blocks of %d inputs", len(rates), caBlock)
	rep.add("setup_s", "s", setup, setupRuns, "calcheck cold start: exec to exit 0 on "+exampleProbe+", median")
	rep.add("throughput_per_s", "1/s", median(rates), len(lat), "verdicts_per_s: block inputs / block wall time, "+blocks)
	rep.add("p50_ms", "ms", median(p50s), len(lat), "verdict_p50_ms (parse + check), "+blocks)
	rep.add("tail_ms", "ms", median(p99s), len(lat), "verdict_p99_ms (parse + check), "+blocks)
	rep.add("decided_share", "ratio", ratio(float64(decided), float64(rep.attempted)), int(rep.attempted), "right verdict within the deadline / attempted")
	rep.add("peak_rss_mb", "MB", peakRSSMB("self"), 1, "VmHWM of this process")
	return rep, nil
}

// dfsStats accumulates the check layer's counters over dfs-decided calls.
type dfsStats struct {
	seconds        float64
	states, hits   int
	maxOvershootMS float64
}

func (s *dfsStats) add(o outcome) {
	if o.engine == check.EngineDFS && o.err == nil {
		s.seconds += o.check.Seconds()
		s.states += o.states
		s.hits += o.memoHits
	}
	if ov := ms(o.over); ov > s.maxOvershootMS {
		s.maxOvershootMS = ov
	}
}

func (s *dfsStats) report(rep *report, calls int) {
	rep.add("check.dfs_s", "s", s.seconds, calls, "busy time of Check calls decided by the DFS")
	rep.add("check.states", "count", float64(s.states), calls, "")
	rep.add("check.memo_hits", "count", float64(s.hits), calls, "")
	rep.add("check.memo_hit_ratio", "ratio", ratio(float64(s.hits), float64(s.hits+s.states)), calls, "")
	rep.add("check.states_per_s", "1/s", ratio(float64(s.states), s.seconds), calls, "")
	rep.add("check.deadline_overshoot_ms", "ms", s.maxOvershootMS, calls, "max over inputs of return time - deadline (0 if none hit it)")
}

// allocPerState replays inputs one at a time and returns the bytes the
// DFS allocates per state, from a runtime.MemStats delta around each
// Check call decided by the DFS.
func allocPerState(corpus []input, checkers map[checkerKey]*calgo.Checker, limit int) float64 {
	var bytes, states uint64
	var before, after runtime.MemStats
	for i := range corpus {
		if i >= limit {
			break
		}
		in := &corpus[i]
		h, err := history.ParseFile(in.Name, in.Src)
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), caDeadline)
		runtime.ReadMemStats(&before)
		res, err := checkers[keyOf(*in)].Check(ctx, h)
		runtime.ReadMemStats(&after)
		cancel()
		if err == nil && res.Engine == check.EngineDFS {
			bytes += after.TotalAlloc - before.TotalAlloc
			states += uint64(res.States)
		}
	}
	return ratio(float64(bytes), float64(states))
}

// traceCheckCA is the traced run: the same closed loop once untraced
// (for the overhead) and once with spans, then a single-threaded replay
// for allocation per state.
func traceCheckCA(cfg config, corpus []input, rep *report) (*report, error) {
	checkers, err := buildCheckers(configs(corpus), nil)
	if err != nil {
		return nil, err
	}
	half := cfg.seconds / 2
	plain := 0
	plainWall := closedLoop(corpus, checkers, cfg.workers, half, nil, func(outcome) { plain++ })

	tr := newTracer(true)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var dfs dfsStats
	var parseS float64
	var events, n int
	traced := 0
	wall := closedLoop(corpus, checkers, cfg.workers, half, tr, func(o outcome) {
		rep.attempted++
		judge(rep, o)
		traced++
		n++
		parseS += o.parse.Seconds()
		events += o.in.Events
		dfs.add(o)
	})
	runtime.ReadMemStats(&ms1)
	rep.add("history.parse_s", "s", parseS, n, "busy time in history.ParseFile")
	rep.add("history.parse_events_per_s", "1/s", ratio(float64(events), parseS), n, "")
	dfs.report(rep, n)
	rep.add("check.alloc_bytes_per_state", "B", allocPerState(corpus, checkers, 400), 400, "single-threaded replay of DFS calls")
	cycles, pause := gcDelta(&ms0, &ms1)
	rep.add("go.gc_cycles", "count", float64(cycles), 1, "during the traced loop")
	rep.add("go.gc_pause_ms", "ms", pause, cycles, "")
	overhead := ratio(float64(plain)/plainWall.Seconds(), float64(traced)/wall.Seconds()) - 1
	rep.add("trace.overhead_share", "ratio", overhead, 2, "untraced / traced verdicts_per_s - 1")
	return rep, tr.write(filepath.Join(cfg.workdir, "traces"), fmt.Sprintf("check-ca-seed%d.jsonl", cfg.seed))
}

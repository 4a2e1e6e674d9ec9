package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"calgo"
	"calgo/internal/model"
	"calgo/internal/rg"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// exploreModel is one entry of the calexplore battery: an initial state,
// exactly the hooks cmd/calexplore installs for it, and the state count
// every exhaustive exploration must reach.
type exploreModel struct {
	name       string
	init       sched.State
	invariant  func(sched.State) error
	transition func(sched.State, sched.Succ) error
	terminal   func(sched.State) error
	deadlock   bool
	states     int
}

// battery builds the four models of the explore workload.
func battery() []exploreModel {
	f1 := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
	f2 := model.NewElimStack(model.ESConfig{Slots: 1, Retries: 2,
		Programs: [][]model.StackOp{{model.Push(1)}, {model.Push(2)}, {model.Pop()}}})
	sq := model.NewSyncQueue(model.SQConfig{
		Programs: [][]model.SQOp{{model.Put(1)}, {model.Put(2)}, {model.Take()}}})
	ds := model.NewDualStack(model.DSConfig{Retries: 2,
		Programs: [][]model.StackOp{{model.Pop()}, {model.Pop()}, {model.Push(1)}}})
	return []exploreModel{
		{name: "f1", init: f1, states: 12223,
			invariant: func(st sched.State) error {
				if err := model.InvariantJ(st); err != nil {
					return err
				}
				return model.ProofOutline(st)
			},
			transition: rg.Hook(true),
			terminal:   model.VerifyCAL(spec.NewExchanger("E"), nil, true)},
		{name: "f2", init: f2, states: 61851, deadlock: true,
			terminal: model.VerifyCAL(spec.NewStack("ES"), f2.Project, true)},
		{name: "syncqueue", init: sq, states: 11925,
			terminal: model.VerifyCAL(spec.NewSyncQueue("SQ"), nil, true)},
		{name: "dualstack", init: ds, states: 142345, deadlock: true,
			terminal: model.VerifyCAL(spec.NewDualStack("DS"), nil, true)},
	}
}

// hookTimes holds the busy time of each hook kind, summed over workers.
type hookTimes struct{ invariant, transition, terminal busy }

// options returns the calgo options for m, with the hooks wrapped in
// timers when ht is set. The wrappers only add to atomics, so they are
// as safe for concurrent calls as the hooks they wrap.
func (m exploreModel) options(workers int, ht *hookTimes) []calgo.Option {
	opts := []calgo.Option{calgo.WithParallelism(workers), calgo.WithMaxStates(4_000_000)}
	if inv := m.invariant; inv != nil {
		if ht != nil {
			inv = func(st sched.State) error {
				t0 := time.Now()
				defer func() { ht.invariant.add(time.Since(t0)) }()
				return m.invariant(st)
			}
		}
		opts = append(opts, calgo.WithInvariant(inv))
	}
	if tr := m.transition; tr != nil {
		if ht != nil {
			tr = func(from sched.State, s sched.Succ) error {
				t0 := time.Now()
				defer func() { ht.transition.add(time.Since(t0)) }()
				return m.transition(from, s)
			}
		}
		opts = append(opts, calgo.WithTransition(tr))
	}
	if term := m.terminal; term != nil {
		if ht != nil {
			term = func(st sched.State) error {
				t0 := time.Now()
				defer func() { ht.terminal.add(time.Since(t0)) }()
				return m.terminal(st)
			}
		}
		opts = append(opts, calgo.WithTerminal(term))
	}
	if m.deadlock {
		opts = append(opts, calgo.WithDeadlockAllowed())
	}
	return opts
}

// modelRun is one exploration's outcome.
type modelRun struct {
	name          string
	stats         calgo.ExploreStats
	wall          time.Duration
	allocs, bytes uint64
}

// runBattery explores every model once and checks the outcome: every
// model must verify with exactly its known state count.
func runBattery(models []exploreModel, workers int, ht *hookTimes, tr *tracer, traceID int64, rep *report) ([]modelRun, time.Duration) {
	root := tr.id()
	start := time.Now()
	runs := make([]modelRun, 0, len(models))
	var before, after runtime.MemStats
	for _, m := range models {
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		stats, err := calgo.Explore(context.Background(), m.init, m.options(workers, ht)...)
		t1 := time.Now()
		tr.record(tr.id(), root, traceID, "sched.explore."+m.name, t0, t1)
		run := modelRun{name: m.name, stats: stats, wall: t1.Sub(t0)}
		if tr != nil {
			runtime.ReadMemStats(&after)
			run.allocs, run.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		}
		rep.attempted++
		switch {
		case err != nil:
			rep.miss("explore %s: not VERIFIED: %v", m.name, err)
		case stats.States != m.states:
			rep.fail("explore %s: %d states, want %d", m.name, stats.States, m.states)
		}
		runs = append(runs, run)
	}
	wall := time.Since(start)
	tr.record(root, 0, traceID, "battery", start, start.Add(wall))
	return runs, wall
}

func runExplore(cfg config) (*report, error) {
	rep := &report{}
	if cfg.traced {
		return traceExplore(cfg, rep)
	}
	setup, err := coldStart(cfg.bin, "calexplore", "-target", "exchanger", "-values", "3,4")
	if err != nil {
		return nil, err
	}
	models := battery()
	var rates, walls, slowest []float64
	start := time.Now()
	for {
		runs, wall := runBattery(models, cfg.workers, nil, nil, 0, rep)
		states, slow := 0, time.Duration(0)
		for _, r := range runs {
			states += r.stats.States
			slow = max(slow, r.wall)
		}
		slowest = append(slowest, ms(slow))
		rates = append(rates, float64(states)/wall.Seconds())
		walls = append(walls, ms(wall))
		if time.Since(start)+wall/2 >= cfg.seconds {
			break
		}
	}
	n := len(walls)
	rep.add("setup_s", "s", setup, setupRuns, "calexplore cold start: exec to exit 0 on a 2-thread exchanger, median")
	rep.add("throughput_per_s", "1/s", median(rates), n, "states_per_s: median over batteries of states / battery wall time")
	rep.add("p50_ms", "ms", median(walls), n, "median battery wall time")
	rep.add("tail_ms", "ms", median(slowest), n, "wall time of each battery's slowest model, median over batteries")
	rep.add("decided_share", "ratio", ratio(float64(rep.attempted-rep.failed), float64(rep.attempted)), int(rep.attempted), "models VERIFIED with the known state count / attempted")
	rep.add("peak_rss_mb", "MB", peakRSSMB("self"), 1, "VmHWM of this process")
	return rep, nil
}

// traceExplore is the traced run: one untraced battery for the overhead,
// one battery with timed hooks and per-model allocation counts, then a
// single-threaded walk of the F2 and dual-stack state spaces through
// their public Key and Successors methods.
func traceExplore(cfg config, rep *report) (*report, error) {
	models := battery()
	_, plainWall := runBattery(models, cfg.workers, nil, nil, 0, rep)
	var ht hookTimes
	tr := newTracer(true)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runs, wall := runBattery(models, cfg.workers, &ht, tr, 1, rep)
	runtime.ReadMemStats(&ms1)
	var states, transitions, steals int
	var allocs, bytes uint64
	for _, r := range runs {
		rep.add("sched."+r.name+".s", "s", r.wall.Seconds(), 1, fmt.Sprintf("Explore wall time, %d states", r.stats.States))
		states += r.stats.States
		transitions += r.stats.Transitions
		steals += r.stats.Steals
		allocs += r.allocs
		bytes += r.bytes
	}
	rep.add("sched.states", "count", float64(states), len(runs), "summed over the battery")
	rep.add("sched.transitions", "count", float64(transitions), len(runs), "")
	rep.add("sched.steals", "count", float64(steals), len(runs), "")
	rep.add("sched.allocs_per_state", "count", ratio(float64(allocs), float64(states)), len(runs), "runtime.MemStats delta around Explore")
	rep.add("sched.alloc_bytes_per_state", "B", ratio(float64(bytes), float64(states)), len(runs), "")
	rep.add("explore.invariant_s", "s", ht.invariant.seconds(), int(ht.invariant.calls.Load()), "busy time summed over workers")
	rep.add("explore.transition_s", "s", ht.transition.seconds(), int(ht.transition.calls.Load()), "")
	rep.add("explore.terminal_s", "s", ht.terminal.seconds(), int(ht.terminal.calls.Load()), "")
	cycles, pause := gcDelta(&ms0, &ms1)
	rep.add("go.gc_cycles", "count", float64(cycles), 1, "during the traced battery")
	rep.add("go.gc_pause_ms", "ms", pause, cycles, "")
	rep.add("trace.overhead_share", "ratio", ratio(wall.Seconds(), plainWall.Seconds())-1, 2, "traced / untraced battery wall time - 1")
	for _, m := range models {
		if m.name != "f2" && m.name != "dualstack" {
			continue
		}
		w := walk(m.init)
		if w.states != m.states {
			rep.fail("walk %s: %d states, want %d", m.name, w.states, m.states)
		}
		rep.add("model."+m.name+".key_ns", "ns", ratio(float64(w.keyNS), float64(w.keys)), w.keys, "ns per Key() call")
		rep.add("model."+m.name+".succ_ns", "ns", ratio(float64(w.succNS), float64(w.states)), w.states, "ns per Successors() call")
		rep.add("model."+m.name+".alloc_bytes_per_state", "B", ratio(float64(w.bytes), float64(w.states)), w.states, "")
	}
	return rep, tr.write(filepath.Join(cfg.workdir, "traces"), fmt.Sprintf("explore-seed%d.jsonl", cfg.seed))
}

// walkStats is what a single-threaded state-space walk measured.
type walkStats struct {
	states, keys  int
	keyNS, succNS int64
	bytes         uint64
}

// walk visits every state reachable from init once, timing the model's
// Key and Successors calls; allocation is taken around the whole walk.
func walk(init sched.State) walkStats {
	var w walkStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seen := map[string]bool{init.Key(): true}
	stack := []sched.State{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w.states++
		t0 := time.Now()
		succs := s.Successors()
		t1 := time.Now()
		w.succNS += int64(t1.Sub(t0))
		for _, sc := range succs {
			t2 := time.Now()
			k := sc.Next.Key()
			w.keyNS += int64(time.Since(t2))
			w.keys++
			if !seen[k] {
				seen[k] = true
				stack = append(stack, sc.Next)
			}
		}
	}
	runtime.ReadMemStats(&after)
	w.bytes = after.TotalAlloc - before.TotalAlloc
	return w
}

package model_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"calgo/internal/model"
	"calgo/internal/rg"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// exploreF1 runs the full F1 verification battery (exchanger, Fig. 3
// program) at the given parallelism.
func exploreF1(t *testing.T, parallelism int) sched.Stats {
	t.Helper()
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithInvariant(func(st sched.State) error {
			if err := model.InvariantJ(st); err != nil {
				return err
			}
			return model.ProofOutline(st)
		}),
		sched.WithTransition(rg.Hook(true)),
		sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)),
		sched.WithParallelism(parallelism))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return stats
}

// exploreF2 runs the F2 battery (elimination stack, K=1, R=2,
// push/push/pop) at the given parallelism.
func exploreF2(t *testing.T, parallelism int) sched.Stats {
	t.Helper()
	init := model.NewElimStack(model.ESConfig{
		Slots:   1,
		Retries: 2,
		Programs: [][]model.StackOp{
			{model.Push(1)},
			{model.Push(2)},
			{model.Pop()},
		},
	})
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewStack("ES"), init.Project, true)),
		sched.WithDeadlockAllowed(),
		sched.WithParallelism(parallelism))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return stats
}

func parallelisms() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// pinStats explores at every parallelism and checks the three
// schedule-independent counts against want, the figures recorded at
// the sequential engine.
func pinStats(t *testing.T, want sched.Stats, explore func(t *testing.T, parallelism int) sched.Stats) {
	t.Helper()
	for _, par := range parallelisms() {
		got := explore(t, par)
		if got.States != want.States || got.Transitions != want.Transitions || got.Terminals != want.Terminals {
			t.Errorf("parallelism %d: states/transitions/terminals %d/%d/%d, want %d/%d/%d",
				par, got.States, got.Transitions, got.Terminals, want.States, want.Transitions, want.Terminals)
		}
	}
}

// TestParallelEquivalenceF1 pins that the work-stealing engine reports
// the exact sequential state counts on the F1 model at every worker
// count (the numbers recorded in EXPERIMENTS.md).
func TestParallelEquivalenceF1(t *testing.T) {
	pinStats(t, sched.Stats{States: 12_223, Transitions: 20_424, Terminals: 1_446}, exploreF1)
}

// TestParallelEquivalenceF2 is the same contract on the 61,851-state F2
// model; skipped under -short because each run explores the full graph.
func TestParallelEquivalenceF2(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping three full F2 explorations in -short mode")
	}
	pinStats(t, sched.Stats{States: 61_851, Transitions: 102_532, Terminals: 7_096}, exploreF2)
}

// exploreWith returns an explore function for pinStats that runs init
// with opts at the requested parallelism.
func exploreWith(init sched.State, opts ...sched.Option) func(*testing.T, int) sched.Stats {
	return func(t *testing.T, parallelism int) sched.Stats {
		t.Helper()
		stats, err := sched.Explore(context.Background(), init,
			append(opts[:len(opts):len(opts)], sched.WithParallelism(parallelism))...)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return stats
	}
}

// TestStateCounts pins the state graphs of the other five models, so a
// change to how states are encoded or cloned cannot merge or split states
// unnoticed. syncqueue and dualstack use the calexplore battery configs;
// stack, dualqueue and snapshot use a config of their own model tests.
func TestStateCounts(t *testing.T) {
	sq := model.NewSyncQueue(model.SQConfig{
		Programs: [][]model.SQOp{{model.Put(1)}, {model.Put(2)}, {model.Take()}}})
	ds := model.NewDualStack(model.DSConfig{Retries: 2,
		Programs: [][]model.StackOp{{model.Pop()}, {model.Pop()}, {model.Push(1)}}})
	st := model.NewStack(model.StackConfig{Programs: [][]model.StackOp{
		{model.Push(1), model.Pop()}, {model.Push(2), model.Pop()}}})
	dq := model.NewDualQueue(model.DQConfig{Programs: [][]model.QOp{
		{model.Enq(1), model.Deq()}, {model.Deq(), model.Enq(2)}}})
	is := model.NewSnapshot(model.ISConfig{Values: []int64{10, 20, 30}})
	for _, tc := range []struct {
		name  string
		heavy bool // skipped under -short
		want  sched.Stats
		run   func(*testing.T, int) sched.Stats
	}{
		{"syncqueue", false, sched.Stats{States: 11_925, Transitions: 19_504, Terminals: 1_462},
			exploreWith(sq, sched.WithTerminal(model.VerifyCAL(spec.NewSyncQueue("SQ"), nil, true)))},
		{"dualstack", true, sched.Stats{States: 142_345, Transitions: 221_810, Terminals: 21_222},
			exploreWith(ds, sched.WithTerminal(model.VerifyCAL(spec.NewDualStack("DS"), nil, true)),
				sched.WithDeadlockAllowed())},
		{"stack", false, sched.Stats{States: 4_091, Transitions: 5_134, Terminals: 670},
			exploreWith(st, sched.WithTerminal(model.VerifyCAL(spec.NewCentralStack("S"), nil, true)))},
		{"dualqueue", false, sched.Stats{States: 28_086, Transitions: 43_950, Terminals: 1_640},
			exploreWith(dq, sched.WithTerminal(model.VerifyCAL(spec.NewDualQueue("DQ"), nil, true)),
				sched.WithDeadlockAllowed())},
		{"snapshot", false, sched.Stats{States: 66_760, Transitions: 169_681, Terminals: 666},
			exploreWith(is, sched.WithTerminal(model.VerifyCAL(spec.NewSnapshot("IS", 3), is.Project, true)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skipf("skipping three full %s explorations in -short mode", tc.name)
			}
			pinStats(t, tc.want, tc.run)
		})
	}
}

// TestParallelCatchesInjectedDefects re-runs the soundness battery with a
// parallel engine: all three injected exchanger defects must still be
// reported as violations.
func TestParallelCatchesInjectedDefects(t *testing.T) {
	for _, bug := range []string{"drop-pass-log", "wrong-swap-values", "late-swap-log"} {
		t.Run(bug, func(t *testing.T) {
			init := model.NewExchanger(model.ExchangerConfig{
				Programs: [][]int64{{3}, {4}},
				Bug:      bug,
			})
			_, err := sched.Explore(context.Background(),
				init,
				sched.WithInvariant(func(st sched.State) error {
					if err := model.InvariantJ(st); err != nil {
						return err
					}
					return model.ProofOutline(st)
				}),
				sched.WithTransition(rg.Hook(false)),
				sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)),
				sched.WithParallelism(4))
			var verr *sched.ViolationError
			if !errors.As(err, &verr) {
				t.Fatalf("bug %q escaped the parallel exploration (err = %v)", bug, err)
			}
		})
	}
}

package model

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// errText renders a verdict for comparison; nil is a pass.
func errText(err error) string {
	if err == nil {
		return "pass"
	}
	return err.Error()
}

// checkMemo explores init with a memoized VerifyCAL hook as the terminal
// check and, on every terminal, compares its verdict with a fresh,
// unmemoized evaluation and with a second memoized call. It returns the
// memo and the number of terminals that failed.
func checkMemo(t *testing.T, init sched.State, sp spec.Spec, project func(trace.Trace) trace.Trace, deadlock bool) (*terminalMemo, int64) {
	t.Helper()
	memo := newTerminalMemo(sp, project, true)
	var (
		failed atomic.Int64
		mu     sync.Mutex
		diffs  []string
	)
	hook := func(st sched.State) error {
		got := memo.verify(st)
		want := VerifyCAL(sp, project, true)(st)
		again := memo.verify(st)
		if got != nil {
			failed.Add(1)
		}
		if errText(got) != errText(want) || again != got {
			mu.Lock()
			diffs = append(diffs, fmt.Sprintf("memoized %q, fresh %q, again %q", errText(got), errText(want), errText(again)))
			mu.Unlock()
		}
		return nil
	}
	opts := []sched.Option{sched.WithTerminal(hook)}
	if deadlock {
		opts = append(opts, sched.WithDeadlockAllowed())
	}
	if _, err := sched.Explore(context.Background(), init, opts...); err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if i == 5 {
			t.Errorf("... and %d more", len(diffs)-i)
			break
		}
		t.Error(d)
	}
	return memo, failed.Load()
}

// TestVerifyCALMemo holds the memoized terminal hook to a fresh
// evaluation on every terminal of the calexplore battery (F1, F2, the sync
// queue and the dual stack) and of the exchanger's bug variants, and pins
// the number of distinct (history, projected trace) pairs the memo keeps.
// The explorations run on GOMAXPROCS workers, so the memo is also used
// concurrently.
func TestVerifyCALMemo(t *testing.T) {
	f2 := NewElimStack(ESConfig{Slots: 1, Retries: 2,
		Programs: [][]StackOp{{Push(1)}, {Push(2)}, {Pop()}}})
	for _, tc := range []struct {
		name     string
		init     sched.State
		sp       spec.Spec
		project  func(trace.Trace) trace.Trace
		deadlock bool
		pairs    int
		heavy    bool
	}{
		{name: "f1", init: NewExchanger(ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}}),
			sp: spec.NewExchanger("E"), pairs: 486},
		{name: "f2", init: f2, sp: spec.NewStack("ES"), project: f2.Project, deadlock: true,
			pairs: 284, heavy: true},
		{name: "syncqueue", init: NewSyncQueue(SQConfig{Programs: [][]SQOp{{Put(1)}, {Put(2)}, {Take()}}}),
			sp: spec.NewSyncQueue("SQ"), pairs: 518},
		{name: "dualstack", init: NewDualStack(DSConfig{Retries: 2,
			Programs: [][]StackOp{{Pop()}, {Pop()}, {Push(1)}}}),
			sp: spec.NewDualStack("DS"), deadlock: true, pairs: 662, heavy: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("exhaustive exploration; skipped in -short mode")
			}
			memo, failed := checkMemo(t, tc.init, tc.sp, tc.project, tc.deadlock)
			if failed != 0 {
				t.Errorf("%d terminals failed verification", failed)
			}
			if n := len(memo.verdicts); n != tc.pairs {
				t.Errorf("memo holds %d distinct pairs, want %d", n, tc.pairs)
			}
		})
	}
	// The bug variants: memoized and fresh verdicts agree on failing
	// terminals too, a failing terminal checked twice gets the same
	// error, and the defects that show at a terminal are still caught.
	for _, tc := range []struct {
		bug        string
		atTerminal bool
	}{
		{"drop-pass-log", true},
		{"wrong-swap-values", true},
		{"late-swap-log", false},
	} {
		t.Run(tc.bug, func(t *testing.T) {
			init := NewExchanger(ExchangerConfig{Programs: [][]int64{{3, 5}, {4, 6}}, Bug: tc.bug})
			_, failed := checkMemo(t, init, spec.NewExchanger("E"), nil, false)
			if tc.atTerminal && failed == 0 {
				t.Errorf("bug %q escaped the terminal check", tc.bug)
			}
		})
	}
}

// countingSpec counts the checker runs against it: NewChecker reads
// MaxElementSize once per check. A broken one reports a size of 0, on
// which the checker refuses to run.
type countingSpec struct {
	spec.Spec
	broken bool
	checks atomic.Int64
}

func (c *countingSpec) MaxElementSize() int {
	c.checks.Add(1)
	if c.broken {
		return 0
	}
	return c.Spec.MaxElementSize()
}

// TestVerifyCALMemoSkipsCheckerErrors: a verdict is checked once, but an
// error of the checker itself is not a verdict and is not kept.
func TestVerifyCALMemoSkipsCheckerErrors(t *testing.T) {
	var st sched.State = NewExchanger(ExchangerConfig{Programs: [][]int64{{3}, {4}}})
	for succs := st.Successors(); len(succs) > 0; succs = st.Successors() {
		st = succs[0].Next
	}
	good := &countingSpec{Spec: spec.NewExchanger("E")}
	hook := VerifyCAL(good, nil, true)
	for i := 0; i < 2; i++ {
		if err := hook(st); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
	if n := good.checks.Load(); n != 1 {
		t.Errorf("a passing terminal checked twice ran the checker %d times, want 1", n)
	}

	broken := &countingSpec{Spec: spec.NewExchanger("E"), broken: true}
	hook = VerifyCAL(broken, nil, true)
	for i := 0; i < 2; i++ {
		if err := hook(st); err == nil || !strings.Contains(err.Error(), "CAL checker:") {
			t.Fatalf("call %d: got %v, want the checker's error", i+1, err)
		}
	}
	if n := broken.checks.Load(); n != 2 {
		t.Errorf("a checker error was kept: two calls ran the checker %d times, want 2", n)
	}
}

package history

import (
	"reflect"
	"testing"
)

const (
	objE ObjectID = "E"
	objS ObjectID = "S"
	exch Method   = "exchange"
	push Method   = "push"
	pop  Method   = "pop"
)

// fig3H1 is history H1 of the paper's Figure 3: three overlapping
// exchange operations; t1 and t2 swap 3 and 4, t3 fails.
func fig3H1() History {
	return History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Inv(3, objE, exch, Int(7)),
		Res(1, objE, exch, Pair(true, 4)),
		Res(2, objE, exch, Pair(true, 3)),
		Res(3, objE, exch, Pair(false, 7)),
	}
}

// fig3H2 is history H2 of Figure 3: the swap pair overlaps, t3's failed
// exchange runs entirely after them.
func fig3H2() History {
	return History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Res(1, objE, exch, Pair(true, 4)),
		Res(2, objE, exch, Pair(true, 3)),
		Inv(3, objE, exch, Int(7)),
		Res(3, objE, exch, Pair(false, 7)),
	}
}

// fig3H3 is the sequential history H3 of Figure 3: the undesired
// "explanation" of H1 in which operations are serialized.
func fig3H3() History {
	return History{
		Inv(1, objE, exch, Int(3)),
		Res(1, objE, exch, Pair(true, 4)),
		Inv(2, objE, exch, Int(4)),
		Res(2, objE, exch, Pair(true, 3)),
		Inv(3, objE, exch, Int(7)),
		Res(3, objE, exch, Pair(false, 7)),
	}
}

func TestIsSequential(t *testing.T) {
	tests := []struct {
		name string
		h    History
		want bool
	}{
		{"empty", History{}, true},
		{"H3 sequential", fig3H3(), true},
		{"H1 concurrent", fig3H1(), false},
		{"H2 partly concurrent", fig3H2(), false},
		{"starts with response", History{Res(1, objE, exch, Int(1))}, false},
		// A trailing pending invocation is a valid alternation prefix
		// (Definition 2), as in Herlihy-Wing.
		{"lone invocation", History{Inv(1, objE, exch, Int(1))}, true},
		{"mismatched response thread", History{
			Inv(1, objE, exch, Int(1)),
			Res(2, objE, exch, Int(1)),
		}, false},
		{"mismatched response method", History{
			Inv(1, objS, push, Int(1)),
			Res(1, objS, pop, Bool(true)),
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.h.IsSequential(); got != tt.want {
				t.Errorf("IsSequential() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsWellFormed(t *testing.T) {
	tests := []struct {
		name string
		h    History
		want bool
	}{
		{"empty", History{}, true},
		{"H1", fig3H1(), true},
		{"H2", fig3H2(), true},
		{"H3", fig3H3(), true},
		{"pending ok", History{Inv(1, objE, exch, Int(3))}, true},
		{"double invocation same thread", History{
			Inv(1, objE, exch, Int(3)),
			Inv(1, objE, exch, Int(4)),
		}, false},
		{"response without invocation", History{
			Res(1, objE, exch, Pair(true, 4)),
		}, false},
		{"response mismatch", History{
			Inv(1, objE, exch, Int(3)),
			Res(1, objS, push, Bool(true)),
		}, false},
		{"interleaved distinct threads", History{
			Inv(1, objE, exch, Int(3)),
			Inv(2, objE, exch, Int(4)),
			Res(2, objE, exch, Pair(true, 3)),
			Res(1, objE, exch, Pair(true, 4)),
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.h.IsWellFormed(); got != tt.want {
				t.Errorf("IsWellFormed() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsComplete(t *testing.T) {
	if !fig3H1().IsComplete() {
		t.Error("H1 should be complete")
	}
	pending := History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Res(1, objE, exch, Pair(true, 4)),
	}
	if pending.IsComplete() {
		t.Error("history with pending t2 should not be complete")
	}
	illFormed := History{Res(1, objE, exch, Int(1))}
	if illFormed.IsComplete() {
		t.Error("ill-formed history should not be complete")
	}
}

func TestPendingThreads(t *testing.T) {
	h := History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Res(1, objE, exch, Pair(true, 4)),
		Inv(3, objE, exch, Int(5)),
		Inv(1, objE, exch, Int(9)),
	}
	got := h.PendingThreads()
	want := []ThreadID{2, 3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PendingThreads() = %v, want %v", got, want)
	}
	if n := len(fig3H1().PendingThreads()); n != 0 {
		t.Errorf("complete history has %d pending threads, want 0", n)
	}
}

func TestDropPending(t *testing.T) {
	h := History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Res(1, objE, exch, Pair(true, 4)),
	}
	got := h.DropPending()
	want := History{
		Inv(1, objE, exch, Int(3)),
		Res(1, objE, exch, Pair(true, 4)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DropPending() = %v, want %v", got, want)
	}
	if !got.IsComplete() {
		t.Error("DropPending result should be complete")
	}
	// Dropping from a complete history is the identity.
	if !reflect.DeepEqual(fig3H1().DropPending(), fig3H1()) {
		t.Error("DropPending on complete history should be identity")
	}
	// A re-invocation after a completed call survives.
	h2 := History{
		Inv(1, objE, exch, Int(3)),
		Res(1, objE, exch, Pair(false, 3)),
		Inv(1, objE, exch, Int(5)),
	}
	got2 := h2.DropPending()
	if len(got2) != 2 || !got2.IsComplete() {
		t.Errorf("DropPending() = %v, want first op only", got2)
	}
}

func TestExtend(t *testing.T) {
	h := History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
	}
	got, err := h.Extend(map[ThreadID]Value{1: Pair(true, 4)})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if len(got) != 3 || !got[2].IsRes() || got[2].Thread != 1 || got[2].Ret != Pair(true, 4) {
		t.Errorf("Extend() = %v", got)
	}
	if got.IsComplete() {
		t.Error("t2 still pending; must not be complete")
	}
	if _, err := h.Extend(map[ThreadID]Value{9: Unit()}); err == nil {
		t.Error("Extend with unknown thread should error")
	}
	// Original history unchanged.
	if len(h) != 2 {
		t.Error("Extend must not mutate receiver")
	}
}

func TestProjections(t *testing.T) {
	h := fig3H1()
	h1 := h.ByThread(1)
	if len(h1) != 2 || !h1.IsSequential() {
		t.Errorf("H|t1 = %v, want sequential pair", h1)
	}
	if got := len(h.ByObject(objE)); got != 6 {
		t.Errorf("|H|E| = %d, want 6", got)
	}
	if got := len(h.ByObject(objS)); got != 0 {
		t.Errorf("|H|S| = %d, want 0", got)
	}
	mixed := h.Append(Inv(4, objS, push, Int(9)))
	if got := len(mixed.ByObject(objS)); got != 1 {
		t.Errorf("|H'|S| = %d, want 1", got)
	}
}

func TestThreadsObjects(t *testing.T) {
	h := fig3H1().Append(Inv(9, objS, push, Int(1)))
	if got := h.Threads(); !reflect.DeepEqual(got, []ThreadID{1, 2, 3, 9}) {
		t.Errorf("Threads() = %v", got)
	}
	if got := h.Objects(); !reflect.DeepEqual(got, []ObjectID{objE, objS}) {
		t.Errorf("Objects() = %v", got)
	}
}

func TestWellFormedProjectionsAreSequential(t *testing.T) {
	// Definition 2: H is well-formed iff every H|t is sequential.
	for _, h := range []History{fig3H1(), fig3H2(), fig3H3()} {
		for _, tid := range h.Threads() {
			if !h.ByThread(tid).IsSequential() {
				t.Errorf("projection of well-formed history to %v is not sequential", tid)
			}
		}
	}
}

func TestAppendDoesNotAlias(t *testing.T) {
	h := make(History, 0, 8)
	h = append(h, Inv(1, objE, exch, Int(1)))
	a := h.Append(Res(1, objE, exch, Pair(false, 1)))
	b := h.Append(Res(1, objE, exch, Pair(true, 2)))
	if a[1].Ret == b[1].Ret {
		t.Error("Append aliased backing arrays")
	}
}

// TestAppendKeyExact: AppendKey tells apart histories whose display
// forms coincide, and encodes equal histories alike.
func TestAppendKeyExact(t *testing.T) {
	key := func(h History) string { return string(h.AppendKey(nil)) }
	// "E.x" + "y" and "E" + "x.y" both render as E.x.y.
	a := History{Inv(1, "E.x", "y", Int(1))}
	b := History{Inv(1, "E", "x.y", Int(1))}
	if Format(a) != Format(b) {
		t.Fatalf("premise: Format(a) = %q, Format(b) = %q", Format(a), Format(b))
	}
	distinct := []History{
		nil, a, b,
		{Inv(1, objE, exch, Int(3))},
		{Inv(2, objE, exch, Int(3))},
		{Inv(1, objE, exch, Int(4))},
		{Inv(1, objE, exch, Bool(true))},
		{Inv(1, objE, exch, Pair(true, 3))},
		{Inv(1, objE, exch, Pair(false, 3))},
		{Res(1, objE, exch, Int(3))},
		{Inv(1, objE, exch, Int(3)), Res(1, objE, exch, Pair(true, 4))},
		{Inv(1, objE, exch, Int(3)), Res(1, objE, exch, Pair(true, -4))},
	}
	seen := map[string]int{}
	for i, h := range distinct {
		if j, dup := seen[key(h)]; dup {
			t.Errorf("histories %d and %d share a key:\n%v\n%v", j, i, distinct[j], h)
		}
		seen[key(h)] = i
	}
	if key(fig3H1()) != key(append(History(nil), fig3H1()...)) {
		t.Error("equal histories encode differently")
	}
	if key(History{}) != key(nil) {
		t.Error("nil and empty histories encode differently")
	}
}

package model

import (
	"testing"

	"calgo/internal/history"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// TestCloneDoesNotAlias: successors of one state are handed to different
// workers, so what one clone appends or writes must stay invisible to the
// state it came from and to its sibling clones, even when the parent's
// slices and running encodings have spare capacity.
func TestCloneDoesNotAlias(t *testing.T) {
	s := NewExchanger(ExchangerConfig{Programs: [][]int64{{3}, {4}}})
	s.Trace, s.trKey = make(trace.Trace, 0, 8), make([]byte, 0, 256)
	s.Hist, s.hKey = make(history.History, 0, 8), make([]byte, 0, 256)
	s.record(spec.FailElement("E", 1, 3))
	s.log(history.Inv(1, "E", spec.MethodExchange, history.Int(3)))
	parentKey := s.Key()

	a, b := s.clone(), s.clone()
	a.record(spec.FailElement("E", 2, 4))
	b.record(spec.FailElement("E", 2, 5))
	a.log(history.Inv(2, "E", spec.MethodExchange, history.Int(4)))
	b.log(history.Inv(2, "E", spec.MethodExchange, history.Int(5)))
	a.Threads[0].pc = pcRet

	if a.Trace[1].Equal(b.Trace[1]) || a.Hist[1] == b.Hist[1] {
		t.Fatal("sibling clones share the array they append to")
	}
	if len(s.Trace) != 1 || len(s.Hist) != 1 || s.Threads[0].pc != pcIdle {
		t.Fatalf("a clone's writes reached its parent: %d trace elements, %d events, pc %d",
			len(s.Trace), len(s.Hist), s.Threads[0].pc)
	}
	if s.Key() != parentKey {
		t.Fatal("a clone's appends reached its parent's running encoding")
	}
	if s.Key() == a.Key() || a.Key() == b.Key() {
		t.Fatal("diverged states share a key")
	}
	for _, st := range []*ExchangerState{s, a, b} {
		if got, want := st.Key(), scratchKey(t, st); got != want {
			t.Fatalf("running key %x, from-scratch key %x", got, want)
		}
	}
}

package model

import (
	"slices"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/trace"
)

// thread is implemented by each model's per-thread registers.
type thread interface {
	keyer
	done() bool // the thread has finished its program
}

// state is the scaffold every model state embeds: the threads' registers,
// the auxiliary CA-trace 𝒯 and the interface history. A model adds its
// shared heap, the heap's share of the key and its step function. States
// are immutable once returned as a successor: workers read them
// concurrently.
type state[T thread] struct {
	Threads []T
	Trace   trace.Trace
	Hist    history.History
}

// History returns the interface history produced so far.
func (s *state[T]) History() history.History { return s.Hist }

// AuxTrace returns the recorded auxiliary CA-trace 𝒯.
func (s *state[T]) AuxTrace() trace.Trace { return s.Trace }

// Done implements sched.State. A halted thread is not done; models that
// halt run with AllowDeadlock.
func (s *state[T]) Done() bool {
	for _, th := range s.Threads {
		if !th.done() {
			return false
		}
	}
	return true
}

// clone returns a copy of the scaffold for a successor to mutate. Threads
// is copied, since steps write registers in place. Trace and Hist are
// only ever appended to, so the copy shares their arrays clipped to
// length: a successor's first append reallocates and never writes into an
// array another state can see.
func (s *state[T]) clone() state[T] {
	return state[T]{
		Threads: slices.Clone(s.Threads),
		Trace:   slices.Clip(s.Trace),
		Hist:    slices.Clip(s.Hist),
	}
}

// appendKey appends the scaffold's share of the state key: the threads'
// registers, 𝒯 and the history.
func (s *state[T]) appendKey(k []byte) []byte {
	k = appendSection(k, s.Threads)
	return s.Hist.AppendKey(s.Trace.AppendKey(k))
}

// successors collects the enabled steps of every thread; step appends
// thread t's successors to out.
func (s *state[T]) successors(step func(t int, out []sched.Succ) []sched.Succ) []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		out = step(t, out)
	}
	return out
}

// tid maps a thread index to its ThreadID (1-based).
func tid(t int) history.ThreadID { return history.ThreadID(t + 1) }

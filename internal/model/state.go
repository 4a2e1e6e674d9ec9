package model

import (
	"encoding/binary"
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
//
// Trace and Hist are append-only, and a model extends them only through
// record and log, never by assigning them directly. Those also extend
// trKey and hKey, the running encodings of Trace's elements and Hist's
// events (trace.Element.AppendKey, history.Event.AppendKey), so a key
// copies the two sections instead of re-encoding the whole run on every
// successor. A direct append would leave its element out of every later
// key; keyCheck catches it in the package's tests.
type state[T thread] struct {
	Threads []T
	Trace   trace.Trace
	Hist    history.History

	trKey, hKey []byte
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
// is copied, since steps write registers in place. Trace, Hist and their
// running encodings are only ever appended to, so the copy shares their
// arrays clipped to length: a successor's first append reallocates and
// never writes into an array another state can see.
func (s *state[T]) clone() state[T] {
	return state[T]{
		Threads: slices.Clone(s.Threads),
		Trace:   slices.Clip(s.Trace),
		Hist:    slices.Clip(s.Hist),
		trKey:   slices.Clip(s.trKey),
		hKey:    slices.Clip(s.hKey),
	}
}

// record appends the CA-element el to 𝒯.
func (s *state[T]) record(el trace.Element) {
	s.Trace = append(s.Trace, el)
	s.trKey = el.AppendKey(s.trKey)
}

// log appends the action ev to the history.
func (s *state[T]) log(ev history.Event) {
	s.Hist = append(s.Hist, ev)
	s.hKey = ev.AppendKey(s.hKey)
}

// keyRoom bounds the encoded size of one thread or heap entry: at most
// ten registers and flags, each a byte or two for the small values the
// models hold. It only sizes the key buffer; a larger entry costs one
// regrowth, not exactness.
const keyRoom = 16

// keyBuf returns an empty key buffer with room for the scaffold's share
// of the key and for heap more entries, so building the key does not
// regrow it.
func (s *state[T]) keyBuf(heap int) []byte {
	n := 3*binary.MaxVarintLen64 + len(s.trKey) + len(s.hKey) + keyRoom*(len(s.Threads)+heap)
	return make([]byte, 0, n)
}

// appendKey appends the scaffold's share of the state key: the threads'
// registers, 𝒯 and the history, byte for byte what Trace.AppendKey and
// History.AppendKey write.
func (s *state[T]) appendKey(k []byte) []byte {
	if keyCheck {
		s.checkRunningKeys()
	}
	k = append(appendLen(appendSection(k, s.Threads), len(s.Trace)), s.trKey...)
	return append(appendLen(k, len(s.Hist)), s.hKey...)
}

// keyCheck makes appendKey hold the running encodings to ones rebuilt
// from Trace and Hist. The package's tests set it, so an append to Trace
// or Hist that bypasses record or log, which would leave the element out
// of every later key and let the explorer merge distinct states, fails
// any test that builds a key.
var keyCheck bool

// checkRunningKeys panics if trKey or hKey has fallen out of step with
// the slice it encodes.
func (s *state[T]) checkRunningKeys() {
	want := s.Trace.AppendKey(nil)
	if got := appendLen(nil, len(s.Trace)); string(append(got, s.trKey...)) != string(want) {
		panic("model: running encoding of the trace is out of step; append to Trace only through record")
	}
	want = s.Hist.AppendKey(nil)
	if got := appendLen(nil, len(s.Hist)); string(append(got, s.hKey...)) != string(want) {
		panic("model: running encoding of the history is out of step; append to Hist only through log")
	}
}

// successors collects the enabled steps of every thread; step appends
// thread t's successors to out.
func (s *state[T]) successors(step func(t int, out []sched.Succ) []sched.Succ) []sched.Succ {
	out := make([]sched.Succ, 0, len(s.Threads))
	for t := range s.Threads {
		out = step(t, out)
	}
	return out
}

// tid maps a thread index to its ThreadID (1-based).
func tid(t int) history.ThreadID { return history.ThreadID(t + 1) }

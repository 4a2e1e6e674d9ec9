package history

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// History is a finite sequence of invocations and responses (Definition 2).
type History []Event

// ByThread returns H|t, the subsequence of actions of thread t.
func (h History) ByThread(t ThreadID) History {
	var out History
	for _, e := range h {
		if e.Thread == t {
			out = append(out, e)
		}
	}
	return out
}

// ByObject returns H|o, the subsequence of actions on object o.
func (h History) ByObject(o ObjectID) History {
	var out History
	for _, e := range h {
		if e.Object == o {
			out = append(out, e)
		}
	}
	return out
}

// Threads returns the distinct thread identifiers appearing in h, in order
// of first appearance.
func (h History) Threads() []ThreadID {
	seen := make(map[ThreadID]bool)
	var out []ThreadID
	for _, e := range h {
		if !seen[e.Thread] {
			seen[e.Thread] = true
			out = append(out, e.Thread)
		}
	}
	return out
}

// Objects returns the distinct object identifiers appearing in h, in order
// of first appearance.
func (h History) Objects() []ObjectID {
	seen := make(map[ObjectID]bool)
	var out []ObjectID
	for _, e := range h {
		if !seen[e.Object] {
			seen[e.Object] = true
			out = append(out, e.Object)
		}
	}
	return out
}

// IsSequential reports whether h is an alternation of invocations and
// responses starting with an invocation, where each response matches the
// invocation immediately preceding it (Definition 2).
func (h History) IsSequential() bool {
	for i, e := range h {
		if i%2 == 0 {
			if !e.IsInv() {
				return false
			}
		} else {
			if !h[i-1].Matches(e) {
				return false
			}
		}
	}
	return true
}

// IsWellFormed reports whether for every thread t, h|t is sequential
// (Definition 2).
func (h History) IsWellFormed() bool {
	// last[t] is the index into h of the last action of t, or -1.
	pending := make(map[ThreadID]*Event)
	for i := range h {
		e := h[i]
		switch e.Kind {
		case Invoke:
			if pending[e.Thread] != nil {
				return false // invocation while a call is outstanding
			}
			pending[e.Thread] = &h[i]
		case Respond:
			p := pending[e.Thread]
			if p == nil || !p.Matches(e) {
				return false // response with no matching invocation
			}
			pending[e.Thread] = nil
		default:
			return false
		}
	}
	return true
}

// IsComplete reports whether h is well-formed and every invocation has a
// matching response (Definition 2).
func (h History) IsComplete() bool {
	if !h.IsWellFormed() {
		return false
	}
	pending := make(map[ThreadID]bool)
	for _, e := range h {
		if e.IsInv() {
			pending[e.Thread] = true
		} else {
			pending[e.Thread] = false
		}
	}
	for _, p := range pending {
		if p {
			return false
		}
	}
	return true
}

// PendingThreads returns the threads with an outstanding invocation in the
// well-formed history h, in order of their pending invocations.
func (h History) PendingThreads() []ThreadID {
	outstanding := make(map[ThreadID]int) // thread -> inv index of open call
	for i, e := range h {
		if e.IsInv() {
			outstanding[e.Thread] = i
		} else {
			delete(outstanding, e.Thread)
		}
	}
	out := make([]ThreadID, 0, len(outstanding))
	for t := range outstanding {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return outstanding[out[i]] < outstanding[out[j]] })
	return out
}

// DropPending returns the history obtained from the well-formed history h by
// removing every invocation that has no matching response. This is the
// "removing some invocation actions" half of completion (Definition 2).
func (h History) DropPending() History {
	resSeen := make([]bool, len(h))
	// Mark invocations that have a matching response.
	outstanding := make(map[ThreadID]int) // thread -> index of pending inv
	for i, e := range h {
		switch e.Kind {
		case Invoke:
			outstanding[e.Thread] = i
		case Respond:
			if j, ok := outstanding[e.Thread]; ok {
				resSeen[j] = true
				delete(outstanding, e.Thread)
			}
		}
	}
	out := make(History, 0, len(h))
	for i, e := range h {
		if e.IsInv() && !resSeen[i] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Extend returns h with response actions appended, one per entry of rets;
// each entry maps a pending thread to the return value used to complete its
// outstanding invocation. Threads absent from rets keep their invocations
// pending. This is the "extending H with some response actions" half of
// completion (Definition 2).
func (h History) Extend(rets map[ThreadID]Value) (History, error) {
	out := append(History(nil), h...)
	pend := make(map[ThreadID]Event)
	for _, e := range h {
		if e.IsInv() {
			pend[e.Thread] = e
		} else {
			delete(pend, e.Thread)
		}
	}
	for t, v := range rets {
		inv, ok := pend[t]
		if !ok {
			return nil, fmt.Errorf("history: thread %s has no pending invocation to complete", t)
		}
		out = append(out, Res(t, inv.Object, inv.Method, v))
	}
	return out, nil
}

// Append returns h extended with the given events. It does not mutate h.
func (h History) Append(events ...Event) History {
	out := make(History, 0, len(h)+len(events))
	out = append(out, h...)
	return append(out, events...)
}

// AppendKey appends an exact binary encoding of h to b and returns the
// extended slice: the event count, then each event's kind and fields.
// Every section is length-prefixed, so two histories share an encoding
// only if they are equal; model checkers use it as state identity. It is
// not meant to be read: String and Format are for display.
func (h History) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(h)))
	for _, e := range h {
		b = e.AppendKey(b)
	}
	return b
}

// AppendKey appends the exact encoding of one event to b: the bytes
// History.AppendKey writes for it after the count, so an append-only
// history's encoding can be carried along event by event.
func (e Event) AppendKey(b []byte) []byte {
	return AppendOpKey(append(b, byte(e.Kind)), e.Thread, e.Object, e.Method, e.Arg, e.Ret)
}

// AppendOpKey appends the exact encoding of one operation's fields to b:
// the layout that History.AppendKey and trace.Trace.AppendKey share.
func AppendOpKey(b []byte, t ThreadID, o ObjectID, f Method, arg, ret Value) []byte {
	b = binary.AppendVarint(b, int64(t))
	b = appendString(b, string(o))
	b = appendString(b, string(f))
	return ret.appendKey(arg.appendKey(b))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func (v Value) appendKey(b []byte) []byte {
	var flag byte
	if v.B {
		flag = 1
	}
	return binary.AppendVarint(append(b, byte(v.Kind), flag), v.N)
}

// String renders the history one action per line, for display.
func (h History) String() string {
	var b strings.Builder
	for i, e := range h {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.String())
	}
	return b.String()
}
